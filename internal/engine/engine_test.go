package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/graph"
)

// testWorkload builds a small synthetic data graph plus a sampled pattern
// that is guaranteed to have matches.
func testWorkload(t testing.TB, n int, seed int64) (q, g *graph.Graph) {
	t.Helper()
	g = generator.Synthetic(n, 1.2, 10, seed)
	q = generator.SamplePattern(g, generator.PatternOptions{Nodes: 4, Alpha: 1.2, Seed: seed + 1})
	if q.NumNodes() == 0 {
		t.Fatal("sampled an empty pattern")
	}
	return q, g
}

func mustMatch(t testing.TB, e *Engine, q *graph.Graph, opts QueryOptions) *core.Result {
	t.Helper()
	res, err := e.Match(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustCoreMatch(t testing.TB, q, g *graph.Graph, opts core.Options) *core.Result {
	t.Helper()
	res, err := core.MatchWith(q, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMatchParityWithCore checks the engine returns byte-for-byte the result
// of core.MatchWith with the global filter on — subgraphs, relations, dedup
// tie-breaking and stats — for plain Match and for Match+, at several worker
// counts and radii, and that every row's subgraphs are those of the paper's
// unfiltered Match (Match+ ≡ Match at every radius).
func TestMatchParityWithCore(t *testing.T) {
	q, g := testWorkload(t, 600, 3)
	dq, _ := graph.Diameter(q)
	cases := []struct {
		name string
		opts QueryOptions
	}{
		{"plain", QueryOptions{}},
		{"plus", PlusQuery()},
		{"dualFilterOnly", QueryOptions{DualFilter: true}},
		{"pruningOnly", QueryOptions{ConnectivityPruning: true}},
		{"radiusOverride", QueryOptions{Radius: 1}},
		{"radiusAboveDiameter", QueryOptions{Radius: dq + 1}},
	}
	for _, workers := range []int{1, 4} {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				want := mustCoreMatch(t, q, g, core.Options{Radius: tc.opts.Radius, MinimizeQuery: tc.opts.MinimizeQuery,
					DualFilter: true, ConnectivityPruning: tc.opts.ConnectivityPruning})
				e := New(g, Config{Workers: workers})
				got := mustMatch(t, e, q, tc.opts)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: engine result diverges from core.MatchWith\n got: %d subgraphs, stats %+v\nwant: %d subgraphs, stats %+v",
						workers, got.Len(), got.Stats, want.Len(), want.Stats)
				}
				plain := mustCoreMatch(t, q, g, core.Options{Radius: tc.opts.Radius})
				if !reflect.DeepEqual(got.Subgraphs, plain.Subgraphs) {
					t.Errorf("workers=%d: engine subgraphs diverge from unfiltered core.Match: %d vs %d",
						workers, got.Len(), plain.Len())
				}
			})
		}
	}
}

// BenchmarkMatch is one Match per mode at one worker: a 6-node sampled
// pattern over a 5000-node synthetic graph with 50 labels, the snapshot
// prepared once.
func BenchmarkMatch(b *testing.B) {
	g := generator.Synthetic(5000, 1.2, 50, 7)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 6, Alpha: 1.2, Seed: 9})
	e := New(g, Config{Workers: 1})
	for _, mode := range []struct {
		name string
		opts QueryOptions
	}{{"plain", QueryOptions{}}, {"plus", PlusQuery()}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Match(context.Background(), q, mode.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMatchNoMatchPattern runs a pattern whose label exists nowhere in the
// data graph, with and without the deprecated DualFilter option (the engine
// filters either way).
func TestMatchNoMatchPattern(t *testing.T) {
	_, g := testWorkload(t, 200, 5)
	b := graph.NewBuilder(g.Labels().Clone())
	u := b.AddNode("no-such-label")
	v := b.AddNode("no-such-label")
	_ = b.AddEdge(u, v)
	q := b.Build()
	for _, opts := range []QueryOptions{{}, {DualFilter: true}} {
		e := New(g, Config{Workers: 2})
		res := mustMatch(t, e, q, opts)
		if !res.Empty() {
			t.Fatalf("opts %+v: expected no matches, got %d", opts, res.Len())
		}
		if res.Stats.BallsSkipped != g.NumNodes() {
			t.Fatalf("opts %+v: every center should be skipped, got %d of %d",
				opts, res.Stats.BallsSkipped, g.NumNodes())
		}
	}
}

func TestMatchErrors(t *testing.T) {
	_, g := testWorkload(t, 100, 7)
	e := New(g, Config{})
	if _, err := e.Match(context.Background(), graph.NewBuilder(g.Labels().Clone()).Build(), QueryOptions{}); err == nil {
		t.Error("empty pattern: expected an error")
	}
	b := graph.NewBuilder(g.Labels().Clone())
	b.AddNode("l0")
	b.AddNode("l1") // no edge: disconnected
	if _, err := e.Match(context.Background(), b.Build(), QueryOptions{}); err == nil {
		t.Error("disconnected pattern: expected an error")
	}
}

// TestParsePatternLabelIsolation checks that parsing a pattern with novel
// labels does not grow the snapshot's shared table, while known labels keep
// their identifiers.
func TestParsePatternLabelIsolation(t *testing.T) {
	_, g := testWorkload(t, 100, 13)
	snap := NewSnapshot(g)
	before := g.Labels().Len()

	q, err := snap.ParsePattern("node a l0\nnode b brand-new-label\nedge a b\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.Labels().Len() != before {
		t.Fatalf("snapshot label table grew from %d to %d", before, g.Labels().Len())
	}
	if q.Label(0) != g.Labels().ID("l0") {
		t.Error("known label lost its shared identifier")
	}
	if q.Labels().ID("brand-new-label") == graph.NoLabel {
		t.Error("novel label missing from the pattern's private table")
	}
	if _, err := snap.ParsePattern(""); err == nil {
		t.Error("empty pattern text: expected an error")
	}
	if _, err := snap.ParsePattern("bogus line"); err == nil {
		t.Error("malformed pattern text: expected an error")
	}
}

// TestStreamMatchesMatch checks the set of subgraphs Each streams equals the
// collected result of Match on a fixed workload, with the same stats.
func TestStreamMatchesMatch(t *testing.T) {
	q, g := testWorkload(t, 500, 17)
	e := New(g, Config{Workers: 4})
	want := mustMatch(t, e, q, PlusQuery())

	got, stats := mustEach(t, e, q, PlusQuery())
	sigs := make([]string, 0, len(got))
	for _, ps := range got {
		sigs = append(sigs, ps.Signature())
	}
	wantSigs := make([]string, 0, want.Len())
	for _, ps := range want.Subgraphs {
		wantSigs = append(wantSigs, ps.Signature())
	}
	sort.Strings(sigs)
	sort.Strings(wantSigs)
	if !reflect.DeepEqual(sigs, wantSigs) {
		t.Errorf("streamed %d distinct subgraphs, Match found %d", len(sigs), len(wantSigs))
	}
	if stats.BallsExamined != want.Stats.BallsExamined {
		t.Errorf("stream examined %d balls, Match %d", stats.BallsExamined, want.Stats.BallsExamined)
	}
}

// TestEachPatternError checks validation errors surface from Each before
// any emit.
func TestEachPatternError(t *testing.T) {
	_, g := testWorkload(t, 100, 19)
	e := New(g, Config{})
	_, err := e.Each(context.Background(), graph.NewBuilder(g.Labels().Clone()).Build(), QueryOptions{},
		func(*core.PerfectSubgraph) bool {
			t.Fatal("emitted for an empty pattern")
			return false
		})
	if err == nil {
		t.Error("expected a pattern validation error")
	}
}

func mustEach(t *testing.T, e *Engine, q *graph.Graph, opts QueryOptions) ([]*core.PerfectSubgraph, core.Stats) {
	t.Helper()
	var subs []*core.PerfectSubgraph
	stats, err := e.Each(context.Background(), q, opts, func(ps *core.PerfectSubgraph) bool {
		subs = append(subs, ps)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return subs, stats
}

// TestEachIsMatchInCenterOrder is the one-pass property. At every worker
// count, in both modes, on random graphs and patterns: Each hands out
// exactly Match's subgraphs, Center included, in ascending center order and
// with Match's stats; Limit n keeps the first n of them, in Each and in
// Match alike, and ranking a limited Match ranks those n; and repeated runs,
// limited ones included, agree byte for byte.
func TestEachIsMatchInCenterOrder(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	matched := 0
	for trial := 0; trial < 6; trial++ {
		gs := rng.Int63()
		g := generator.Synthetic(200+rng.Intn(400), 1.2, 3+rng.Intn(5), gs)
		q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 2 + rng.Intn(3), Alpha: 1.2, Seed: gs + 1})
		if q.NumNodes() == 0 {
			continue
		}
		for _, workers := range []int{1, 2, 4} {
			e := New(g, Config{Workers: workers})
			for _, mode := range []QueryOptions{{}, PlusQuery()} {
				where := fmt.Sprintf("graph seed %d, workers %d, plus %v", gs, workers, mode.MinimizeQuery)
				want := mustMatch(t, e, q, mode)
				got, stats := mustEach(t, e, q, mode)
				for i := 1; i < len(got); i++ {
					if got[i-1].Center >= got[i].Center {
						t.Fatalf("%s: Each emitted center %d after %d", where, got[i].Center, got[i-1].Center)
					}
				}
				if sorted := canonical(got); !reflect.DeepEqual(sorted, want.Subgraphs) || stats != want.Stats {
					t.Fatalf("%s: Each gave %d subgraphs, stats %+v; Match %d, stats %+v",
						where, len(got), stats, want.Len(), want.Stats)
				}
				if again, st := mustEach(t, e, q, mode); !reflect.DeepEqual(again, got) || st != stats {
					t.Fatalf("%s: a second Each differs", where)
				}
				matched += len(got)
				for _, n := range []int{1, 2, len(got) / 2, len(got) + 1} {
					if n < 1 {
						continue
					}
					lim := mode
					lim.Limit = n
					first := got[:min(n, len(got))]
					if each, _ := mustEach(t, e, q, lim); !reflect.DeepEqual(each, first) {
						t.Fatalf("%s: Each under Limit %d is not the first %d", where, n, n)
					}
					res := mustMatch(t, e, q, lim)
					if !reflect.DeepEqual(res.Subgraphs, canonical(first)) {
						t.Fatalf("%s: Match under Limit %d is not the first %d by center", where, n, n)
					}
					if again := mustMatch(t, e, q, lim); !reflect.DeepEqual(again, res) {
						t.Fatalf("%s: two Match runs under Limit %d differ", where, n)
					}
					top := (&core.Result{Subgraphs: first}).TopK(q, g, 2, nil)
					if got := res.TopK(q, g, 2, nil); !reflect.DeepEqual(got, top) {
						t.Fatalf("%s: ranking under Limit %d does not rank the first %d", where, n, n)
					}
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no sampled pattern matched; the property was vacuous")
	}
}

// canonical returns a canonically ordered copy of subs.
func canonical(subs []*core.PerfectSubgraph) []*core.PerfectSubgraph {
	out := append([]*core.PerfectSubgraph(nil), subs...)
	core.SortSubgraphs(out)
	return out
}

// TestCandidateCenters cross-checks the snapshot's candidate index against a
// brute-force scan.
func TestCandidateCenters(t *testing.T) {
	q, g := testWorkload(t, 300, 43)
	snap := NewSnapshot(g)
	got := snap.CandidateCenters(q)
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		want := false
		for u := int32(0); u < int32(q.NumNodes()); u++ {
			if q.Label(u) == g.Label(v) {
				want = true
				break
			}
		}
		if got.Contains(v) != want {
			t.Fatalf("node %d: candidate=%v, want %v", v, got.Contains(v), want)
		}
	}
}

// TestEvalCentersMatchesPlainMatch drives the exported per-center evaluator
// over every candidate center and checks the deduplicated outcomes equal a
// plain Match — the contract internal/live relies on when it re-evaluates
// dirty centers after an update batch.
func TestEvalCentersMatchesPlainMatch(t *testing.T) {
	q, g := testWorkload(t, 400, 11)
	e := New(g, Config{Workers: 4})
	want := mustMatch(t, e, q, QueryOptions{})

	centers := e.Snapshot().CandidateCenters(q).Slice()
	perCenter := make([]*core.PerfectSubgraph, len(centers))
	err := e.EvalCenters(context.Background(), q, 0, centers, nil, func(i int, ps *core.PerfectSubgraph) {
		perCenter[i] = ps
	})
	if err != nil {
		t.Fatal(err)
	}
	var stats core.Stats
	got := core.DedupSubgraphs(perCenter, &stats)
	core.SortSubgraphs(got)
	if !reflect.DeepEqual(got, want.Subgraphs) {
		t.Fatalf("EvalCenters outcomes diverge: %d subgraphs vs %d", len(got), want.Len())
	}
	if err := e.EvalCenters(context.Background(), nil, 0, nil, nil, nil); err == nil {
		t.Fatal("nil pattern should be rejected")
	}
}

// TestEvalCentersOutsideCandidates: EvalCenters takes any center it is
// handed, also one whose label the pattern does not carry (live prefilters
// its dirty centers, other callers need not). Such a center must come back
// empty, and every listed center must agree with the reference pair
// NewBall + EvalPreparedBallIn with no scratch.
func TestEvalCentersOutsideCandidates(t *testing.T) {
	q, g := testWorkload(t, 400, 11)
	e := New(g, Config{Workers: 3})
	dq, _ := graph.Diameter(q)
	cand := e.Snapshot().CandidateCenters(q)
	centers := make([]int32, g.NumNodes())
	for i := range centers {
		centers[i] = int32(i)
	}
	got := make([]*core.PerfectSubgraph, len(centers))
	err := e.EvalCenters(context.Background(), q, 0, centers, nil, func(i int, ps *core.PerfectSubgraph) {
		got[i] = ps
	})
	if err != nil {
		t.Fatal(err)
	}
	outside, matched := 0, 0
	for i, c := range centers {
		want, _ := core.EvalPreparedBallIn(q, graph.NewBall(g, c, dq), c, core.Options{}, nil, nil)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("center %d: EvalCenters %v, reference %v", c, got[i], want)
		}
		if want != nil {
			matched++
		}
		if !cand.Contains(c) {
			outside++
			if got[i] != nil {
				t.Fatalf("center %d carries no pattern label but matched: %v", c, got[i])
			}
		}
	}
	if outside == 0 || matched == 0 {
		t.Fatalf("vacuous: %d centers outside the candidate set, %d matching", outside, matched)
	}
}

// TestEvalCentersRejectsDisconnected: EvalCenters refuses a pattern Match
// refuses (Section 2.1), whatever the radius; a caller-supplied radius does
// not stand in for the diameter check. No center is reported.
func TestEvalCentersRejectsDisconnected(t *testing.T) {
	_, g := testWorkload(t, 200, 7)
	e := New(g, Config{Workers: 2})
	b := graph.NewBuilder(g.Labels().Clone())
	b.AddNode("l0")
	b.AddNode("l1") // no edge: disconnected
	q := b.Build()
	centers := e.Snapshot().CandidateCenters(q).Slice()
	for _, radius := range []int{0, 2} {
		err := e.EvalCenters(context.Background(), q, radius, centers, nil, func(i int, ps *core.PerfectSubgraph) {
			t.Fatalf("radius %d: center %d reported for a disconnected pattern", radius, centers[i])
		})
		if err == nil {
			t.Fatalf("radius %d: disconnected pattern accepted", radius)
		}
	}
}
