package simulation

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/paperdata"
)

// relNames maps a relation to label-name form for readable assertions:
// pattern node label -> sorted matched data labels.
func relNames(q, g *graph.Graph, rel Relation) map[string][]string {
	out := make(map[string][]string)
	for u := int32(0); u < int32(q.NumNodes()); u++ {
		var names []string
		rel[u].ForEach(func(v int32) { names = append(names, g.LabelName(v)) })
		out[q.LabelName(u)] = names
	}
	return out
}

func nodeByLabel(t *testing.T, g *graph.Graph, label string) int32 {
	t.Helper()
	vs := g.NodesWithLabelName(label)
	if len(vs) != 1 {
		t.Fatalf("want exactly one node labeled %q, got %v", label, vs)
	}
	return vs[0]
}

func TestSimulationFig1MatchesAllBiologists(t *testing.T) {
	q1, g1 := paperdata.Fig1()
	rel, ok := Simulation(q1, g1)
	if !ok {
		t.Fatal("Q1 ≺ G1 should hold (Example 1)")
	}
	bio := nodeByLabel(t, q1, "Bio")
	if got := rel[bio].Len(); got != 4 {
		t.Fatalf("simulation matches %d biologists, want all 4 (Example 1): %v",
			got, relNames(q1, g1, rel)["Bio"])
	}
	// Example 2(2): simulation's match relation covers the entire graph.
	if covered := rel.DataNodes(g1.NumNodes()).Len(); covered != g1.NumNodes() {
		t.Fatalf("simulation covers %d of %d nodes, want all (Example 2(2))",
			covered, g1.NumNodes())
	}
}

func TestDualFig1MatchesOnlyBio4(t *testing.T) {
	q1, g1 := paperdata.Fig1()
	rel, ok := Dual(q1, g1)
	if !ok {
		t.Fatal("Q1 ≺D G1 should hold")
	}
	got := relNames(q1, g1, rel)
	want := map[string][]string{
		"HR":  {"HR"},       // HR2 (label names are per-node labels)
		"Bio": {"Bio"},      // Bio4
		"SE":  {"SE"},       // SE2
		"DM":  {"DM", "DM"}, // DM'1, DM'2
		"AI":  {"AI", "AI"}, // AI'1, AI'2
	}
	for k, w := range want {
		if len(got[k]) != len(w) {
			t.Fatalf("dual sim %s -> %d matches, want %d (Example 2(3)); rel=%v",
				k, len(got[k]), len(w), rel)
		}
	}
	// The single matched biologist must be Bio4, i.e. a node in the good
	// component — it must have an SE predecessor.
	bio := nodeByLabel(t, q1, "Bio")
	v := rel[bio].First()
	hasSE := false
	for _, p := range g1.In(v) {
		if g1.LabelName(p) == "SE" {
			hasSE = true
		}
	}
	if !hasSE {
		t.Fatal("dual-matched biologist lacks an SE recommender, so it is not Bio4")
	}
}

func TestDualFig2Q2OnlyBook2(t *testing.T) {
	q2, g2 := paperdata.Fig2Q2()
	simRel, ok := Simulation(q2, g2)
	if !ok {
		t.Fatal("Q2 ≺ G2 should hold")
	}
	book := nodeByLabel(t, q2, "book")
	if simRel[book].Len() != 2 {
		t.Fatalf("simulation should match both books, got %d", simRel[book].Len())
	}
	dualRel, ok := Dual(q2, g2)
	if !ok {
		t.Fatal("Q2 ≺D G2 should hold")
	}
	if dualRel[book].Len() != 1 {
		t.Fatalf("dual simulation should match only book2, got %d", dualRel[book].Len())
	}
}

func TestDualFig2Q3KeepsAllFourPeople(t *testing.T) {
	// Example 2(5): dual simulation still matches P4; only locality
	// (strong simulation) removes it.
	q3, g3 := paperdata.Fig2Q3()
	rel, ok := Dual(q3, g3)
	if !ok {
		t.Fatal("Q3 ≺D G3 should hold")
	}
	if covered := rel.DataNodes(g3.NumNodes()).Len(); covered != 4 {
		t.Fatalf("dual sim covers %d people, want 4 (Example 2(5))", covered)
	}
}

func TestDualFig2Q4DualityDropsSN3SN4(t *testing.T) {
	q4, g4 := paperdata.Fig2Q4()
	simRel, ok := Simulation(q4, g4)
	if !ok {
		t.Fatal("Q4 ≺ G4 should hold")
	}
	sn := nodeByLabel(t, q4, "SN")
	if simRel[sn].Len() != 4 {
		t.Fatalf("simulation should match all 4 SN papers, got %d", simRel[sn].Len())
	}
	dualRel, ok := Dual(q4, g4)
	if !ok {
		t.Fatal("Q4 ≺D G4 should hold")
	}
	if dualRel[sn].Len() != 2 {
		t.Fatalf("dual simulation should match SN1,SN2 only, got %d", dualRel[sn].Len())
	}
}

func TestNoMatchWhenLabelMissing(t *testing.T) {
	labels := graph.NewLabels()
	qb := graph.NewBuilder(labels)
	qb.AddNamedEdge("a", "A", "z", "Z")
	q := qb.Build()
	gb := graph.NewBuilder(labels)
	gb.AddNamedEdge("a1", "A", "b1", "B")
	g := gb.Build()
	if _, ok := Simulation(q, g); ok {
		t.Fatal("no Z-labeled data node; simulation must fail")
	}
	if _, ok := Dual(q, g); ok {
		t.Fatal("dual simulation must fail too")
	}
}

func TestEmptyPatternMatchesTrivially(t *testing.T) {
	labels := graph.NewLabels()
	q := graph.NewBuilder(labels).Build()
	gb := graph.NewBuilder(labels)
	gb.AddNode("A")
	g := gb.Build()
	if _, ok := Simulation(q, g); !ok {
		t.Fatal("empty pattern should match vacuously")
	}
}

func TestSimulationDirectedCycleNeedsCycle(t *testing.T) {
	// Pattern a ⇄ b; data is a long even alternating cycle: matches.
	labels := graph.NewLabels()
	qb := graph.NewBuilder(labels)
	qb.AddNamedEdge("x", "A", "y", "B")
	qb.AddNamedEdge("y", "B", "x", "A")
	q := qb.Build()

	gb := graph.NewBuilder(labels)
	const pairs = 4
	for i := 0; i < pairs; i++ {
		gb.AddNamedNode(node("a", i), "A")
		gb.AddNamedNode(node("b", i), "B")
	}
	for i := 0; i < pairs; i++ {
		gb.AddNamedEdge(node("a", i), "A", node("b", i), "B")
		gb.AddNamedEdge(node("b", i), "B", node("a", (i+1)%pairs), "A")
	}
	g := gb.Build()
	if _, ok := Simulation(q, g); !ok {
		t.Fatal("2-cycle pattern should simulate into a long alternating cycle")
	}

	// A plain chain (no cycle) must not match: the last node has no successor.
	cb := graph.NewBuilder(labels)
	cb.AddNamedEdge("a0", "A", "b0", "B")
	cb.AddNamedEdge("b0", "B", "a1", "A")
	chain := cb.Build()
	if _, ok := Simulation(q, chain); ok {
		t.Fatal("chain cannot simulate a directed cycle (Proposition 2)")
	}
}

func node(prefix string, i int) string { return prefix + string(rune('0'+i)) }

func TestDualIsSubsetOfSimulation(t *testing.T) {
	q1, g1 := paperdata.Fig1()
	simRel, _ := Simulation(q1, g1)
	dualRel, _ := Dual(q1, g1)
	if !dualRel.SubsetOf(simRel) {
		t.Fatal("≺D must refine ≺ (Proposition 1)")
	}
}

// randomPair builds a random pattern/data pair over a shared label table —
// the one generator of this package's property tests. Labels repeat inside
// the pattern, both graphs may carry self-loops, the pattern may use a label
// the data graph lacks, and the data graph's density varies from half an edge
// to three edges per node, so that Q ⊀D G is as common as a match. One pair in
// four draws its labels from a table of more than 64, pairing each label in
// use with one 64 ids away: the two share a signature bit (graph.LabelBit),
// so the seeding gate lets through candidates whose only neighbour of a
// needed label's bit carries its partner, and the refinement must drop them.
func randomPair(rng *rand.Rand) (*graph.Graph, *graph.Graph) {
	labels := graph.NewLabels()
	nlabels := 1 + rng.Intn(4)
	name := func(i int) string { return string(rune('A' + i)) }
	if rng.Intn(4) == 0 {
		nlabels = 2 + rng.Intn(3)
		for i := 0; i <= 64+nlabels; i++ {
			labels.Intern(fmt.Sprintf("L%d", i))
		}
		name = func(i int) string { return fmt.Sprintf("L%d", i/2+64*(i%2)) }
	}
	qlabels := nlabels
	if rng.Intn(8) == 0 {
		qlabels++ // the last pattern label is absent from G
	}
	nq := 2 + rng.Intn(5)
	qb := graph.NewBuilder(labels)
	for i := 0; i < nq; i++ {
		qb.AddNode(name(rng.Intn(qlabels)))
	}
	// Random connected-ish pattern: spanning chain plus extras.
	for i := 1; i < nq; i++ {
		_ = qb.AddEdge(int32(rng.Intn(i)), int32(i))
	}
	for i := rng.Intn(nq + 1); i > 0; i-- {
		_ = qb.AddEdge(int32(rng.Intn(nq)), int32(rng.Intn(nq)))
	}
	q := qb.Build()

	ng := 5 + rng.Intn(40)
	gb := graph.NewBuilder(labels)
	for i := 0; i < ng; i++ {
		gb.AddNode(name(rng.Intn(nlabels)))
	}
	for i := ng * (1 + rng.Intn(6)) / 2; i > 0; i-- {
		_ = gb.AddEdge(int32(rng.Intn(ng)), int32(rng.Intn(ng)))
	}
	return q, gb.Build()
}

// foldedPass reports whether the seeding gate passes a label candidate v of
// some pattern node x on a shared bit alone: v's signature covers x's, yet v
// has no out- or in-neighbour of some label x has one of.
func foldedPass(q, g *graph.Graph) bool {
	has := func(row []int32, lbl int32) bool {
		return slices.ContainsFunc(row, func(w int32) bool { return g.Label(w) == lbl })
	}
	for x := int32(0); x < int32(q.NumNodes()); x++ {
		lbl, need := q.Label(x), q.NeighbourSig(x)
		for i, v := range g.NodesWithLabel(lbl) {
			if !g.SigsWithLabel(lbl)[i].Covers(need) {
				continue
			}
			for _, u := range q.Out(x) {
				if !has(g.Out(v), q.Label(u)) {
					return true
				}
			}
			for _, u := range q.In(x) {
				if !has(g.In(v), q.Label(u)) {
					return true
				}
			}
		}
	}
	return false
}

// TestQuickNaiveAgreesWithEfficient is the refiner's correctness property:
// on random pairs the candidate-indexed refiner computes what the paper's
// fixpoints compute — through Simulation, Dual, DualWithin from a shrunken
// start, and DualIn on one scratch reused across all pairs — also where the
// signature gate lets a candidate through on a folded bit.
func TestQuickNaiveAgreesWithEfficient(t *testing.T) {
	var sc Scratch
	matched, unmatched, absent, folded := 0, 0, 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, g := randomPair(rng)
		nRel, nOK := SimulationNaive(q, g)
		eRel, eOK := Simulation(q, g)
		if nOK != eOK || !nRel.Equal(eRel) {
			return false
		}
		ndRel, ndOK := DualNaive(q, g)
		edRel, edOK := Dual(q, g)
		if ndOK != edOK || !ndRel.Equal(edRel) {
			return false
		}
		if ndOK {
			matched++
		} else {
			unmatched++
		}
		for u := int32(0); u < int32(q.NumNodes()); u++ {
			if len(g.NodesWithLabel(q.Label(u))) == 0 {
				absent++
				break
			}
		}
		if foldedPass(q, g) {
			folded++
		}

		// A start that lost a random third of its pairs, interior ones too.
		init := InitByLabel(q, g)
		for u := range init {
			for _, v := range init[u].Slice() {
				if rng.Intn(3) == 0 {
					init[u].Remove(v)
				}
			}
		}
		nwRel, nwOK := naiveFixpoint(q, g, init.Clone(), ChildParent)
		ewRel, ewOK := DualWithin(q, g, init)
		if nwOK != ewOK || !nwRel.Equal(ewRel) {
			return false
		}

		pRel, pOK, err := DualIn(context.Background(), q, g, &sc)
		return err == nil && pOK == ndOK && pRel.Equal(ndRel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if matched < 40 || unmatched < 40 || absent < 10 || folded < 10 {
		t.Fatalf("generator is lopsided: %d matching pairs, %d with Q ⊀D G, %d with a label absent from G, %d passing the gate on a folded bit",
			matched, unmatched, absent, folded)
	}
	t.Logf("%d matching pairs, %d with Q ⊀D G, %d with a label absent from G, %d passing the gate on a folded bit", matched, unmatched, absent, folded)
}

func TestQuickDualRefinesSimulation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, g := randomPair(rng)
		simRel, _ := Simulation(q, g)
		dualRel, _ := Dual(q, g)
		return dualRel.SubsetOf(simRel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMaximality verifies Lemma 1: the fixpoint is the unique maximum —
// re-running refinement on the result changes nothing, and refining any
// superset converges to the same relation.
func TestQuickMaximality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, g := randomPair(rng)
		rel, _ := Dual(q, g)
		again, _ := DualWithin(q, g, rel.Clone())
		return again.Equal(rel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRefinerSeededSuspectsMatchFullRun(t *testing.T) {
	// Seeding every pair must equal SeedAll.
	q1, g1 := paperdata.Fig1()
	relA := InitByLabel(q1, g1)
	ra := NewRefiner(q1, g1, relA, ChildParent)
	ra.SeedAll()
	ra.Run()

	relB := InitByLabel(q1, g1)
	rb := NewRefiner(q1, g1, relB, ChildParent)
	for u := int32(0); u < int32(q1.NumNodes()); u++ {
		for _, p := range relB[u].Slice() {
			rb.EnqueueSuspect(u, p)
		}
	}
	rb.Run()
	if !relA.Equal(relB) {
		t.Fatal("suspect-seeded refinement diverged from full refinement")
	}
	if ra.Removed() == 0 {
		t.Fatal("Fig. 1 refinement should remove pairs")
	}
}

func TestRelationHelpers(t *testing.T) {
	q1, g1 := paperdata.Fig1()
	rel, _ := Dual(q1, g1)
	if rel.Len() != 7 {
		t.Fatalf("dual relation has %d pairs, want 7", rel.Len())
	}
	clone := rel.Clone()
	if !clone.Equal(rel) || !clone.SubsetOf(rel) {
		t.Fatal("clone should equal source")
	}
	clone[0].Clear()
	if clone.Equal(rel) {
		t.Fatal("mutating clone must not affect source")
	}
	if clone.Total() {
		t.Fatal("cleared pattern node should break totality")
	}
	proj := rel.Project(func(v int32) bool { return false })
	if proj.Len() != 0 {
		t.Fatal("projection onto nothing should be empty")
	}
	if len(rel.Pairs()) != rel.Len() {
		t.Fatal("Pairs length mismatch")
	}
	if rel.String() == "" {
		t.Fatal("String should render something")
	}
}
