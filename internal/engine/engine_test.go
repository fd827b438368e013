package engine

import (
	"context"
	"reflect"
	"sort"
	"testing"

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
// of core.MatchWith — subgraphs, relations, dedup tie-breaking and stats —
// for plain Match and for Match+, at several worker counts.
func TestMatchParityWithCore(t *testing.T) {
	q, g := testWorkload(t, 600, 3)
	cases := []struct {
		name string
		opts QueryOptions
	}{
		{"plain", QueryOptions{}},
		{"plus", PlusQuery()},
		{"dualFilterOnly", QueryOptions{DualFilter: true}},
		{"pruningOnly", QueryOptions{ConnectivityPruning: true}},
		{"radiusOverride", QueryOptions{Radius: 1}},
	}
	for _, workers := range []int{1, 4} {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				want := mustCoreMatch(t, q, g, tc.opts.coreOptions())
				e := New(g, Config{Workers: workers})
				got := mustMatch(t, e, q, tc.opts)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: engine result diverges from core.MatchWith\n got: %d subgraphs, stats %+v\nwant: %d subgraphs, stats %+v",
						workers, got.Len(), got.Stats, want.Len(), want.Stats)
				}
			})
		}
	}
}

// TestMatchNoMatchPattern exercises both prefilter paths on a pattern whose
// label exists nowhere in the data graph.
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

// TestStreamMatchesMatch checks the streamed set of subgraphs equals the
// collected result (up to ordering, which streaming does not define).
func TestStreamMatchesMatch(t *testing.T) {
	q, g := testWorkload(t, 500, 17)
	e := New(g, Config{Workers: 4})
	want := mustMatch(t, e, q, PlusQuery())

	s := e.Stream(context.Background(), q, PlusQuery())
	var sigs []string
	for ps := range s.C {
		sigs = append(sigs, ps.Signature())
	}
	stats, err := s.Wait()
	if err != nil {
		t.Fatal(err)
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

// TestStreamPatternError checks validation errors surface through Wait.
func TestStreamPatternError(t *testing.T) {
	_, g := testWorkload(t, 100, 19)
	e := New(g, Config{})
	s := e.Stream(context.Background(), graph.NewBuilder(g.Labels().Clone()).Build(), QueryOptions{})
	for range s.C {
	}
	if _, err := s.Wait(); err == nil {
		t.Error("expected a pattern validation error from Wait")
	}
}

// TestMatchTopKParity checks MatchTopK agrees with ranking the full result
// via Result.TopK for every built-in metric.
func TestMatchTopKParity(t *testing.T) {
	g := generator.Synthetic(500, 1.2, 10, 23)
	e := New(g, Config{Workers: 4})
	// Pick a pattern with enough matches to make ranking meaningful.
	var q *graph.Graph
	var full *core.Result
	for seed := int64(0); seed < 32; seed++ {
		cand := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: seed})
		if res := mustMatch(t, e, cand, QueryOptions{}); res.Len() >= 3 {
			q, full = cand, res
			break
		}
	}
	if q == nil {
		t.Fatal("no sampled pattern yielded at least 3 matches")
	}
	metrics := map[string]core.Metric{
		"default":     nil,
		"compactness": core.ScoreCompactness,
		"density":     core.ScoreDensity,
		"selectivity": core.ScoreSelectivity,
	}
	for name, metric := range metrics {
		for _, k := range []int{1, 2, full.Len(), 0} {
			got, _, err := e.MatchTopK(context.Background(), q, k, metric, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := full.TopK(q, g, k, metric)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: got %d ranked, want %d", name, k, len(got), len(want))
			}
			for i := range got {
				if got[i].Score != want[i].Score || got[i].Signature() != want[i].Signature() {
					t.Errorf("%s k=%d: rank %d diverges (score %v vs %v)",
						name, k, i, got[i].Score, want[i].Score)
				}
			}
		}
	}
}

// TestMatchBatchParity checks every batch member gets exactly its individual
// Match result, including invalid and unmatchable members.
func TestMatchBatchParity(t *testing.T) {
	g := generator.Synthetic(500, 1.2, 10, 29)
	q1 := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 31})
	q2 := generator.SamplePattern(g, generator.PatternOptions{Nodes: 4, Alpha: 1.2, Seed: 37})
	q3 := generator.SamplePattern(g, generator.PatternOptions{Nodes: 5, Alpha: 1.3, Seed: 41})
	// An unmatchable pattern: a label the data graph does not contain.
	nb := graph.NewBuilder(g.Labels().Clone())
	nu := nb.AddNode("never-seen")
	nv := nb.AddNode("never-seen")
	_ = nb.AddEdge(nu, nv)
	qNone := nb.Build()
	// An invalid pattern.
	qBad := graph.NewBuilder(g.Labels().Clone()).Build()

	batch := []BatchQuery{
		{Pattern: q1, Opts: QueryOptions{}},
		{Pattern: q2, Opts: PlusQuery()},
		{Pattern: q3, Opts: QueryOptions{DualFilter: true}},
		{Pattern: qNone, Opts: QueryOptions{DualFilter: true}},
		{Pattern: qBad, Opts: QueryOptions{}},
		{Pattern: q1, Opts: QueryOptions{Limit: 1}},
	}
	e := New(g, Config{Workers: 4})
	results := e.MatchBatch(context.Background(), batch)
	if len(results) != len(batch) {
		t.Fatalf("got %d results for %d queries", len(results), len(batch))
	}
	for i := 0; i < 4; i++ {
		if results[i].Err != nil {
			t.Fatalf("query %d: %v", i, results[i].Err)
		}
		want := mustMatch(t, e, batch[i].Pattern, batch[i].Opts)
		if !reflect.DeepEqual(results[i].Result, want) {
			t.Errorf("query %d: batch result diverges from individual Match (%d vs %d subgraphs)",
				i, results[i].Result.Len(), want.Len())
		}
	}
	if results[4].Err == nil {
		t.Error("invalid member: expected an error")
	}
	if results[5].Err != nil || results[5].Result.Len() != 1 {
		t.Errorf("limited member: want exactly 1 subgraph, got %v / %v", results[5].Result, results[5].Err)
	}
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

// TestEvalCentersOutsideCandidates: EvalCenters evaluates every center it is
// handed, also one whose label the pattern does not carry (live prefilters
// its dirty centers, other callers need not). Such a center must still get a
// ball of its own and come back empty, and every listed center must agree
// with the reference pair NewBall + EvalPreparedBall.
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
		want, _ := core.EvalPreparedBall(q, graph.NewBall(g, c, dq), c)
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
