package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/paperdata"
	"repro/internal/simulation"
)

// resultsEqual compares two result sets subgraph by subgraph (both are
// sorted canonically by MatchWith).
func resultsEqual(a, b *Result) bool {
	if len(a.Subgraphs) != len(b.Subgraphs) {
		return false
	}
	for i := range a.Subgraphs {
		if a.Subgraphs[i].Signature() != b.Subgraphs[i].Signature() {
			return false
		}
	}
	return true
}

func TestDualFilterFig6b(t *testing.T) {
	q6, g6 := paperdata.Fig6b()
	// Global dual simulation must exclude the dead-end chain (A1, B1).
	rel, ok := simulation.Dual(q6, g6)
	if !ok {
		t.Fatal("Q6 ≺D G6 should hold")
	}
	a1 := g6.NodesWithLabelName("A")[0] // first added node is A1
	if g6.LabelName(a1) != "A" {
		t.Fatal("fixture order changed")
	}
	covered := rel.DataNodes(g6.NumNodes())
	if covered.Len() != 8 {
		t.Fatalf("global relation covers %d nodes, want 8 (A1 and B1 excluded)", covered.Len())
	}

	plain := mustMatch(t, q6, g6, Options{Workers: 1})
	filtered := mustMatch(t, q6, g6, Options{DualFilter: true, Workers: 1})
	if !resultsEqual(plain, filtered) {
		t.Fatal("dualFilter changed the result set (Proposition 5 violated)")
	}
	if filtered.Stats.BallsSkipped != 2 {
		t.Fatalf("filter should skip exactly the 2 unmatched centers, skipped %d",
			filtered.Stats.BallsSkipped)
	}
	// The border-seeded refinement does strictly less work than full
	// refinement over all balls.
	if filtered.Stats.PairsRemoved > plain.Stats.PairsRemoved {
		t.Fatalf("filter removed %d pairs, plain removed %d: filter should not do more",
			filtered.Stats.PairsRemoved, plain.Stats.PairsRemoved)
	}
}

func TestConnectivityPruningFig6c(t *testing.T) {
	q7, g7 := paperdata.Fig6c()
	// dQ7 = 5 > dG7 = 4: every ball is the whole graph (Example 6).
	dq, _ := graph.Diameter(q7)
	dg, _ := graph.Diameter(g7)
	if dq != 5 || dg != 4 {
		t.Fatalf("fixture diameters: dQ=%d dG=%d, want 5 and 4", dq, dg)
	}
	plain := mustMatch(t, q7, g7, Options{Workers: 1})
	pruned := mustMatch(t, q7, g7, Options{ConnectivityPruning: true, Workers: 1})
	if !resultsEqual(plain, pruned) {
		t.Fatal("pruning changed the result set")
	}
	// Q7's six-node alternating chain cannot match G7 (B1's only successor
	// is a C node), so both find nothing.
	if !plain.Empty() {
		t.Fatalf("expected no matches, got %v", plain.Subgraphs)
	}
	// Pruning removes candidates before refinement: it must not do more
	// removal work than plain matching.
	if pruned.Stats.PairsRemoved > plain.Stats.PairsRemoved {
		t.Fatalf("pruning removed %d pairs vs plain %d", pruned.Stats.PairsRemoved, plain.Stats.PairsRemoved)
	}
}

func TestMatchPlusEqualsMatchOnPaperFixtures(t *testing.T) {
	type pair struct {
		name string
		q, g *graph.Graph
	}
	var cases []pair
	q1, g1 := paperdata.Fig1()
	cases = append(cases, pair{"fig1", q1, g1})
	q2, g2 := paperdata.Fig2Q2()
	cases = append(cases, pair{"fig2-q2", q2, g2})
	q3, g3 := paperdata.Fig2Q3()
	cases = append(cases, pair{"fig2-q3", q3, g3})
	q4, g4 := paperdata.Fig2Q4()
	cases = append(cases, pair{"fig2-q4", q4, g4})
	q6, g6 := paperdata.Fig6b()
	cases = append(cases, pair{"fig6b", q6, g6})
	q7, g7 := paperdata.Fig6c()
	cases = append(cases, pair{"fig6c", q7, g7})
	q5, _ := paperdata.Fig6aQ5()
	_, g5 := paperdata.Fig6b() // any data graph over different labels: no match
	cases = append(cases, pair{"fig6a-on-foreign-data", q5, g5})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := Match(tc.q, tc.g)
			if err != nil {
				t.Fatal(err)
			}
			plus, err := MatchPlus(tc.q, tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(plain, plus) {
				t.Fatalf("Match and Match+ disagree:\n%v\nvs\n%v", plain.Subgraphs, plus.Subgraphs)
			}
		})
	}
}

// benchMatch times sequential MatchWith on an 8-node sampled pattern over a
// 20k-node synthetic graph with 50 labels.
func benchMatch(b *testing.B, opts Options) {
	g := generator.Synthetic(20000, 1.2, 50, 7)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 8, Alpha: 1.2, Seed: 9})
	opts.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatchWith(q, g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchPlain(b *testing.B) { benchMatch(b, Options{}) }
func BenchmarkMatchPlus(b *testing.B)  { benchMatch(b, PlusOptions()) }

// TestQuickAllVariantsAgree is the central correctness property: every
// optimization combination returns exactly the plain algorithm's Θ, at a
// radius override drawn from 1..dQ+2 as well as at dQ.
func TestQuickAllVariantsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := graph.NewLabels()
		q := randomConnectedPattern(rng, labels, 2+rng.Intn(4))
		g := randomData(rng, labels, 5+rng.Intn(30))
		dq, _ := graph.Diameter(q)
		radius := 1 + rng.Intn(dq+2)
		base, err := MatchWith(q, g, Options{Workers: 1, Radius: radius})
		if err != nil {
			return false
		}
		for _, opts := range []Options{
			{MinimizeQuery: true},
			{DualFilter: true},
			{ConnectivityPruning: true},
			{DualFilter: true, ConnectivityPruning: true},
			PlusOptions(),
		} {
			opts.Radius = radius
			res, err := MatchWith(q, g, opts)
			if err != nil || !resultsEqual(base, res) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPerfectSubgraphInvariants re-verifies every returned subgraph
// against the definitions (Section 2.2) and the paper's bounds
// (Propositions 3 and 4, Theorems 1-3).
func TestQuickPerfectSubgraphInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := graph.NewLabels()
		q := randomConnectedPattern(rng, labels, 2+rng.Intn(4))
		g := randomData(rng, labels, 5+rng.Intn(30))
		dq, _ := graph.Diameter(q)
		res, err := Match(q, g)
		if err != nil {
			return false
		}
		// Proposition 4: |Θ| bounded by |V|.
		if res.Len() > g.NumNodes() {
			return false
		}
		for _, ps := range res.Subgraphs {
			if err := ps.Verify(q, g, dq); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterministicAcrossWorkers checks that parallel ball evaluation
// yields exactly the sequential result.
func TestQuickDeterministicAcrossWorkers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := graph.NewLabels()
		q := randomConnectedPattern(rng, labels, 2+rng.Intn(4))
		g := randomData(rng, labels, 5+rng.Intn(40))
		seq, err := MatchWith(q, g, Options{Workers: 1})
		if err != nil {
			return false
		}
		par, err := MatchWith(q, g, Options{Workers: 8})
		if err != nil {
			return false
		}
		return resultsEqual(seq, par)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRadiusOverride(t *testing.T) {
	q3, g3 := paperdata.Fig2Q3()
	// Radius 2 lets the ball around P4 see both its parent P3 and child P1
	// plus their partners, but P4 still cannot join a perfect subgraph: its
	// matches there lack reciprocation... verify by checking the actual
	// result rather than intuition.
	res := mustMatch(t, q3, g3, Options{Radius: 2})
	for _, ps := range res.Subgraphs {
		if err := ps.Verify(q3, g3, 2); err != nil {
			t.Fatalf("Verify: %v", err)
		}
	}
	// With a radius as large as the graph, locality stops filtering and P4
	// rejoins (dual simulation alone keeps it, Example 2(5)).
	wide := mustMatch(t, q3, g3, Options{Radius: 10})
	if wide.NodeUnion(g3.NumNodes()).Len() != 4 {
		t.Fatal("radius ≥ dG should reduce strong simulation to dual simulation on components")
	}
}

// TestQuickBallEvalScratchParity: one ball evaluated on a scratch that has
// served every earlier ball, pattern and option set of the run gives the same
// subgraph and the same Stats as on freshly allocated state — the refiner's
// rows, the relation's sets and the pruning sets carry nothing over.
func TestQuickBallEvalScratchParity(t *testing.T) {
	var sc simulation.Scratch
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := graph.NewLabels()
		q := randomConnectedPattern(rng, labels, 2+rng.Intn(4))
		g := randomData(rng, labels, 5+rng.Intn(30))
		dq, _ := graph.Diameter(q)
		global, matched := simulation.Dual(q, g)
		for _, opts := range []Options{{}, {ConnectivityPruning: true}, {DualFilter: true}, {DualFilter: true, ConnectivityPruning: true}} {
			rel := global
			if !opts.DualFilter {
				rel = nil
			} else if !matched {
				continue
			}
			for v := int32(0); v < int32(g.NumNodes()); v++ {
				ball := graph.NewBall(g, v, dq)
				want, wantStats := EvalPreparedBallIn(q, ball, v, opts, rel, nil)
				got, gotStats := EvalPreparedBallIn(q, ball, v, opts, rel, &sc)
				if !reflect.DeepEqual(want, got) || wantStats != gotStats {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
