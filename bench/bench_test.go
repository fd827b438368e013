package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestQuantileRule(t *testing.T) {
	// The highest percentile a sample supports leaves ten samples beyond it.
	for _, c := range []struct {
		n   int
		top float64
	}{
		{19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {150, 0.90}, {199, 0.90},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := topPercentile(c.n); got != c.top {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.top)
		}
	}
	if supported(99, 0.90) || !supported(100, 0.90) {
		t.Error("p90 needs exactly 100 samples")
	}
	xs := []float64{1, 2, 3, 4}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 0.9: 3.7} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing must read 0")
	}
	// The host probe's mean drops the tenth at either end: one interrupted
	// sample in twenty must not move it.
	probe := []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 50}
	if got := trimmedMean(probe); got != 2 {
		t.Errorf("trimmedMean = %v, want 2", got)
	}
	if got := trimmedMean([]float64{3}); got != 3 {
		t.Errorf("trimmedMean of one sample = %v, want 3", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{"parent", 0, 0, 100, -1},
		{"a", 0, 10, 40, 0}, // overlaps b over [30,40)
		{"b", 0, 30, 60, 0},
		{"c", 0, 70, 80, 0},
		{"leaf", 0, 1000, 1005, 1}, // timed in another replay: its clock does not nest
		{"long", 0, 0, 500, 3},     // a child longer than its parent: negative, not clamped
		{"empty", 0, 20, 20, 0},
	}
	self := selfTimes(spans)
	for i, want := range []int64{40, 25, 30, -490, 5, 500, 0} {
		if self[i] != want {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want)
		}
	}
	// a and b split [30,40) between them: of the 60 the children cover, a
	// and b get 25 each and c 10, before their own children are taken out.
	wall := wallShares(spans)
	for i, want := range map[int]float64{0: 40, 1: 25 * 25.0 / 30, 2: 25, 3: -490, 4: 5} {
		if math.Abs(wall[i]-want) > 1e-9 {
			t.Errorf("wall share of %s = %v, want %v", spans[i].Name, wall[i], want)
		}
	}
	if got := covered(spans, []int{1, 2, 3}); got != 60 {
		t.Errorf("covered = %d, want 60", got)
	}
}

func TestSeedDeterminism(t *testing.T) {
	for _, spec := range workloads {
		a, err := newWorkload(spec, 2000, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(spec, 2000, 1, true)
		c, _ := newWorkload(spec, 2000, 2, true)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 1 gave digests %s and %s", spec.Name, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 1 and 2 gave the same digest", spec.Name)
		}
	}
	plus, _ := workloadByName("adhoc-plus")
	sharded, _ := workloadByName("sharded-plus")
	a, _ := newWorkload(plus, 2000, 1, true)
	b, _ := newWorkload(sharded, 2000, 1, true)
	if a.digest() != b.digest() {
		t.Error("sharded-plus must send exactly what adhoc-plus sends")
	}
}

func TestChurnInvariants(t *testing.T) {
	spec, _ := workloadByName("repeat-churn")
	w, err := newWorkload(spec, 2000, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	owner := make(map[[2]int32]int)
	for c, ch := range append(w.churn[:], w.sampCh) {
		insertedAt := make(map[[2]int32]int)
		peak := 0
		// Past one lap of the edge pool, so reuse of a group is covered too.
		for b := 0; b < 2*churnWindow*(churnGroups/churnWindow+3); b++ {
			edges, insert := ch.batch()
			if len(edges) != batchSize {
				t.Fatalf("batch %d has %d mutations", b, len(edges))
			}
			for _, e := range edges {
				if prev, taken := owner[e]; taken && prev != c {
					t.Fatalf("edge %v belongs to clients %d and %d", e, prev, c)
				}
				owner[e] = c
				if w.g.HasEdge(e[0], e[1]) || e[0] == e[1] {
					t.Fatalf("edge %v is in the base graph or a loop", e)
				}
				at, present := insertedAt[e]
				switch {
				case insert && present:
					t.Fatalf("batch %d re-inserts %v", b, e)
				case insert:
					insertedAt[e] = b
				case !present:
					t.Fatalf("batch %d deletes %v before its insert", b, e)
				case b-at != churnWindow:
					t.Fatalf("batch %d deletes %v inserted at %d", b, e, at)
				default:
					delete(insertedAt, e)
				}
			}
			peak = max(peak, len(insertedAt))
		}
		if len(insertedAt) != 0 {
			t.Errorf("client %d: %d edges left after whole runs: |E| did not return to base", c, len(insertedAt))
		}
		if peak > batchSize*churnWindow {
			t.Errorf("client %d: |E| rose %d above base, want <= %d", c, peak, batchSize*churnWindow)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json, which the driver
// reads, in step with the tables the harness reports from.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var gated []workloadSpec
	for _, w := range workloads {
		if w.Gated {
			gated = append(gated, w)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the harness", len(doc.Workloads), len(gated))
	}
	for i, w := range gated {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness has %q / %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	for _, c := range []struct {
		kind string
		json []jm
		spec []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.spec) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", c.kind, len(c.json), len(c.spec))
		}
		for i, s := range c.spec {
			if got := c.json[i]; got != (jm{s.Name, s.Unit, s.Better, s.Bound}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, harness has %+v", c.kind, i, got, s)
			}
		}
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, harness default %v", doc.RunSeconds, defaultSeconds)
	}
}

// TestSmoke runs every workload, timed and traced, on the -smoke profile:
// the whole harness end to end in a few seconds.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(config{spec: spec, seed: 1, trace: trace, smoke: true, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d checks=%+v",
					spec.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Checks)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", spec.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", spec.Name, trace, m.Name, got, ok)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", spec.Name, m.Name, got.Value)
				}
			}
			if !trace {
				continue
			}
			if len(rep.Budget) == 0 || rep.Metrics["client.match_ms"].Value <= 0 {
				t.Errorf("%s: no latency budget", spec.Name)
			}
			raw, err := os.ReadFile(filepath.Join(out, "trace-"+spec.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
				t.Errorf("%s: span file holds %d spans, err %v", spec.Name, len(spans), err)
			}
			for i, s := range spans {
				if s.Parent >= i || s.End < s.Start {
					t.Fatalf("%s: span %d %+v: parent must precede it and time must not run back", spec.Name, i, s)
				}
			}
		}
	}
}
