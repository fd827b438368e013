package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/paperdata"
	"repro/internal/simulation"
)

func TestMinQFig6aQ5(t *testing.T) {
	q5, want := paperdata.Fig6aQ5()
	qm, classOf := MinimizeQuery(q5)
	if qm.NumNodes() != 5 || qm.NumEdges() != 4 {
		t.Fatalf("minimized Q5 has |V|=%d |E|=%d, want 5 and 4 (Example 4)",
			qm.NumNodes(), qm.NumEdges())
	}
	// Same shape as the expected R -> A -> B -> C -> D chain: compare label
	// multiset and degree sequence via the text format after relabeling.
	for _, lbl := range []string{"R", "A", "B", "C", "D"} {
		if len(qm.NodesWithLabelName(lbl)) != 1 {
			t.Fatalf("minimized pattern should have one %s node", lbl)
		}
	}
	if want.NumNodes() != qm.NumNodes() || want.NumEdges() != qm.NumEdges() {
		t.Fatal("fixture inconsistency")
	}
	// classOf merges B1,B2 / C1,C2 / D1,D2.
	same := func(a, b string) bool {
		na := q5.NodesWithLabelName(a)[0]
		nb := q5.NodesWithLabelName(b)[0]
		_ = nb
		return classOf[na] == classOf[q5.NodesWithLabelName(b)[0]]
	}
	_ = same
	for _, lbl := range []string{"B", "C", "D"} {
		ns := q5.NodesWithLabelName(lbl)
		if len(ns) != 2 {
			t.Fatalf("fixture: want two %s nodes", lbl)
		}
		if classOf[ns[0]] != classOf[ns[1]] {
			t.Fatalf("%s1 and %s2 should fall in one equivalence class", lbl, lbl)
		}
	}
}

func TestMinQIdempotent(t *testing.T) {
	q5, _ := paperdata.Fig6aQ5()
	qm, _ := MinimizeQuery(q5)
	qmm, _ := MinimizeQuery(qm)
	if qmm.NumNodes() != qm.NumNodes() || qmm.NumEdges() != qm.NumEdges() {
		t.Fatal("minimization should be idempotent")
	}
}

func TestMinQKeepsIrreduciblePatterns(t *testing.T) {
	q1, _ := paperdata.Fig1()
	qm, _ := MinimizeQuery(q1)
	if qm.NumNodes() != q1.NumNodes() || qm.NumEdges() != q1.NumEdges() {
		t.Fatalf("Q1 is already minimal; got |V|=%d |E|=%d", qm.NumNodes(), qm.NumEdges())
	}
}

// TestQuickMinQPreservesDualSim verifies Lemma 2(1): the minimized pattern
// computes the same maximum dual-simulation match relation on any data
// graph, after expanding through classOf.
func TestQuickMinQPreservesDualSim(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := graph.NewLabels()
		q := randomConnectedPattern(rng, labels, 2+rng.Intn(6))
		g := randomData(rng, labels, 5+rng.Intn(40))
		qm, classOf := MinimizeQuery(q)

		origRel, origOK := simulation.Dual(q, g)
		minRel, minOK := simulation.Dual(qm, g)
		if origOK != minOK {
			return false
		}
		for u := int32(0); u < int32(q.NumNodes()); u++ {
			if !origRel[u].Equal(minRel[classOf[u]]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMinQNeverGrows checks |Qm| ≤ |Q| and connectivity preservation.
func TestQuickMinQNeverGrows(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := graph.NewLabels()
		q := randomConnectedPattern(rng, labels, 2+rng.Intn(8))
		qm, classOf := MinimizeQuery(q)
		if qm.Size() > q.Size() {
			return false
		}
		if !qm.IsConnected() {
			return false
		}
		for u := int32(0); u < int32(q.NumNodes()); u++ {
			c := classOf[u]
			if c < 0 || int(c) >= qm.NumNodes() || qm.Label(c) != q.Label(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// randomConnectedPattern builds a connected random pattern of n nodes.
func randomConnectedPattern(rng *rand.Rand, labels *graph.Labels, n int) *graph.Graph {
	b := graph.NewBuilder(labels)
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('A' + rng.Intn(3))))
	}
	for i := 1; i < n; i++ {
		// Connect to an earlier node in a random direction: keeps the
		// pattern connected (undirectedly).
		p := int32(rng.Intn(i))
		if rng.Intn(2) == 0 {
			_ = b.AddEdge(p, int32(i))
		} else {
			_ = b.AddEdge(int32(i), p)
		}
	}
	extra := rng.Intn(n + 1)
	for i := 0; i < extra; i++ {
		_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// randomData builds a random data graph of n nodes over shared labels.
func randomData(rng *rand.Rand, labels *graph.Labels, n int) *graph.Graph {
	b := graph.NewBuilder(labels)
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('A' + rng.Intn(3))))
	}
	m := int(float64(n) * (1.0 + rng.Float64()*2))
	for i := 0; i < m; i++ {
		_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// TestMinQReturnsMinimalPatternItself: a pattern whose nodes carry distinct
// labels (no two can be dual-simulation equivalent), or one that shares a
// label between nodes no round can merge, comes back as the same *Graph with
// the identity classOf.
func TestMinQReturnsMinimalPatternItself(t *testing.T) {
	q1, _ := paperdata.Fig1()
	labels := graph.NewLabels()
	distinct := graph.NewBuilder(labels) // A→B→C, D→B
	for _, l := range []string{"A", "B", "C", "D"} {
		distinct.AddNode(l)
	}
	_ = distinct.AddEdge(0, 1)
	_ = distinct.AddEdge(1, 2)
	_ = distinct.AddEdge(3, 1)
	shared := graph.NewBuilder(labels) // A→B→A: the two A nodes differ
	for _, l := range []string{"A", "B", "A"} {
		shared.AddNode(l)
	}
	_ = shared.AddEdge(0, 1)
	_ = shared.AddEdge(1, 2)
	for name, q := range map[string]*graph.Graph{"Q1": q1, "distinct": distinct.Build(), "shared": shared.Build()} {
		qm, classOf := MinimizeQuery(q)
		if qm != q {
			t.Errorf("%s: MinimizeQuery built a new pattern for a minimal one", name)
		}
		for u, c := range classOf {
			if c != int32(u) {
				t.Errorf("%s: classOf %v, want the identity", name, classOf)
				break
			}
		}
	}
}
