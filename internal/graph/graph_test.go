package graph

import (
	"maps"
	"reflect"
	"testing"
)

func buildDiamond(t testing.TB) *Graph {
	// a -> b, a -> c, b -> d, c -> d
	b := NewBuilder(nil)
	b.SetName("diamond")
	a := b.AddNode("A")
	bb := b.AddNode("B")
	c := b.AddNode("C")
	d := b.AddNode("D")
	for _, e := range [][2]int32{{a, bb}, {a, c}, {bb, d}, {c, d}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := buildDiamond(t)
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.Size() != 8 {
		t.Fatalf("Size = %d, want 8", g.Size())
	}
	if got := g.LabelName(0); got != "A" {
		t.Fatalf("LabelName(0) = %q, want A", got)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatal("expected edges (0,1) and (2,3)")
	}
	if g.HasEdge(1, 0) {
		t.Fatal("unexpected reverse edge (1,0)")
	}
	if got := g.Out(0); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("Out(0) = %v, want [1 2]", got)
	}
	if got := g.In(3); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("In(3) = %v, want [1 2]", got)
	}
	if got := g.Degree(0); got != 2 {
		t.Fatalf("Degree(0) = %d, want 2", got)
	}
}

func TestBuilderDedupsParallelEdges(t *testing.T) {
	b := NewBuilder(nil)
	u := b.AddNode("X")
	v := b.AddNode("X")
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after dedup", g.NumEdges())
	}
	if got := g.In(v); !reflect.DeepEqual(got, []int32{0}) {
		t.Fatalf("In(v) = %v, want [0]", got)
	}
}

func TestBuilderRejectsUnknownEndpoints(t *testing.T) {
	b := NewBuilder(nil)
	b.AddNode("A")
	if err := b.AddEdge(0, 7); err == nil {
		t.Fatal("AddEdge(0,7) succeeded, want error")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Fatal("AddEdge(-1,0) succeeded, want error")
	}
}

func TestSelfLoop(t *testing.T) {
	b := NewBuilder(nil)
	v := b.AddNode("A")
	if err := b.AddEdge(v, v); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if !g.HasEdge(v, v) {
		t.Fatal("self-loop missing")
	}
	if !HasDirectedCycle(g) {
		t.Fatal("self-loop should be a directed cycle")
	}
	if !HasUndirectedCycle(g) {
		t.Fatal("self-loop should be an undirected cycle")
	}
}

func TestNodesWithLabel(t *testing.T) {
	g := buildDiamond(t)
	lbl := g.Labels().ID("A")
	if got := g.NodesWithLabel(lbl); !reflect.DeepEqual(got, []int32{0}) {
		t.Fatalf("NodesWithLabel(A) = %v, want [0]", got)
	}
	if got := g.NodesWithLabelName("Z"); got != nil {
		t.Fatalf("NodesWithLabelName(Z) = %v, want nil", got)
	}
}

func TestSharedLabelTable(t *testing.T) {
	labels := NewLabels()
	b1 := NewBuilder(labels)
	b1.AddNode("A")
	g1 := b1.Build()
	b2 := NewBuilder(labels)
	b2.AddNode("A")
	b2.AddNode("B")
	g2 := b2.Build()
	if g1.Label(0) != g2.Label(0) {
		t.Fatal("label A interned differently across graphs sharing a table")
	}
	if labels.Len() != 2 {
		t.Fatalf("labels.Len() = %d, want 2", labels.Len())
	}
}

func TestEdgeList(t *testing.T) {
	g := buildDiamond(t)
	want := [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}}
	if got := g.EdgeList(); !reflect.DeepEqual(got, want) {
		t.Fatalf("EdgeList = %v, want %v", got, want)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := buildDiamond(t)
	sub, orig, toNew := g.InducedSubgraph([]int32{3, 0, 1})
	if sub.NumNodes() != 3 {
		t.Fatalf("sub nodes = %d, want 3", sub.NumNodes())
	}
	if !reflect.DeepEqual(orig, []int32{0, 1, 3}) {
		t.Fatalf("orig = %v, want [0 1 3]", orig)
	}
	// Surviving edges: (0,1) and (1,3).
	if sub.NumEdges() != 2 {
		t.Fatalf("sub edges = %d, want 2", sub.NumEdges())
	}
	if !sub.HasEdge(toNew[0], toNew[1]) || !sub.HasEdge(toNew[1], toNew[3]) {
		t.Fatal("expected edges missing in induced subgraph")
	}
	if sub.LabelName(toNew[3]) != "D" {
		t.Fatalf("label of node 3 = %q, want D", sub.LabelName(toNew[3]))
	}
}

func TestInducedSubgraphDedupsInput(t *testing.T) {
	g := buildDiamond(t)
	sub, orig, _ := g.InducedSubgraph([]int32{1, 1, 1})
	if sub.NumNodes() != 1 || len(orig) != 1 {
		t.Fatalf("got %d nodes (orig %v), want 1", sub.NumNodes(), orig)
	}
}

func TestStringSummary(t *testing.T) {
	g := buildDiamond(t)
	if got := g.String(); got != "diamond(|V|=4, |E|=4, labels=4)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestFromPartsMatchesBuilder(t *testing.T) {
	want := buildDiamond(t)
	out := make([][]int32, want.NumNodes())
	in := make([][]int32, want.NumNodes())
	nodeLbl := make([]int32, want.NumNodes())
	byLabel := make(map[int32][]int32)
	for v := int32(0); v < int32(want.NumNodes()); v++ {
		out[v] = append([]int32(nil), want.Out(v)...)
		in[v] = append([]int32(nil), want.In(v)...)
		nodeLbl[v] = want.Label(v)
		byLabel[want.Label(v)] = append(byLabel[want.Label(v)], v)
	}
	got := FromParts(want.Labels(), nodeLbl, csrOf(out), csrOf(in), byLabel, want.NumEdges(), "diamond", nil, Delta{})
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size mismatch: %v vs %v", got, want)
	}
	if !reflect.DeepEqual(got.EdgeList(), want.EdgeList()) {
		t.Fatalf("edges differ: %v vs %v", got.EdgeList(), want.EdgeList())
	}
	for v := int32(0); v < int32(want.NumNodes()); v++ {
		if got.LabelName(v) != want.LabelName(v) {
			t.Fatalf("label of %d differs", v)
		}
		if !reflect.DeepEqual(got.NodesWithLabel(got.Label(v)), want.NodesWithLabel(want.Label(v))) {
			t.Fatalf("label index of %d differs", v)
		}
		if got.LabelRanks()[v] != want.LabelRanks()[v] || got.NodesWithLabel(got.Label(v))[got.LabelRanks()[v]] != v {
			t.Fatalf("label rank of %d differs", v)
		}
	}
	if got.String() != want.String() {
		t.Fatalf("String() = %q, want %q", got.String(), want.String())
	}
}

// TestFromPartsInheritsRanks: a graph that follows another by one batch takes
// its label ranks from it — the same array when no label row moved, a copy
// with only the changed rows rewritten otherwise — and either way reads what
// a full walk over byLabel gives, while the predecessor's stay as they were.
func TestFromPartsInheritsRanks(t *testing.T) {
	prev := buildDiamond(t)
	n := prev.NumNodes()
	nodeLbl := make([]int32, n)
	out, in := make([][]int32, n), make([][]int32, n)
	byLabel := make(map[int32][]int32)
	for v := int32(0); v < int32(n); v++ {
		nodeLbl[v], out[v], in[v] = prev.Label(v), prev.Out(v), prev.In(v)
		byLabel[prev.Label(v)] = append(byLabel[prev.Label(v)], v)
	}
	same := FromParts(prev.Labels(), nodeLbl, csrOf(out), csrOf(in), nil, prev.NumEdges(), "edges only", prev, Delta{})
	if &same.LabelRanks()[0] != &prev.LabelRanks()[0] {
		t.Fatal("a batch that touched no label row should share its predecessor's ranks")
	}

	// Move node 0 to node 3's label (row of 0 empties, row of 3 gains a
	// smaller id, so 3's rank shifts) and add a node with node 1's label.
	from, to, grown := nodeLbl[0], nodeLbl[3], nodeLbl[1]
	nodeLbl = append(append([]int32(nil), nodeLbl...), grown)
	nodeLbl[0] = to
	out, in = append(out[:n:n], nil), append(in[:n:n], nil)
	changed := map[int32][]int32{from: nil, to: {0, 3}, grown: append(byLabel[grown][:1:1], int32(n))}
	maps.Copy(byLabel, changed)
	before := append([]int32(nil), prev.LabelRanks()...)

	got := FromParts(prev.Labels(), nodeLbl, csrOf(out), csrOf(in), changed, prev.NumEdges(), "patched", prev,
		Delta{Rows: []int32{int32(n)}, Relabelled: []int32{0, int32(n)}})
	want := FromParts(prev.Labels(), nodeLbl, csrOf(out), csrOf(in), byLabel, prev.NumEdges(), "walked", nil, Delta{})
	if !reflect.DeepEqual(got.LabelRanks(), want.LabelRanks()) {
		t.Fatalf("patched ranks %v, a full walk gives %v", got.LabelRanks(), want.LabelRanks())
	}
	for v := int32(0); v <= int32(n); v++ {
		if got.NodesWithLabel(got.Label(v))[got.LabelRanks()[v]] != v {
			t.Fatalf("rank of %d does not address it in its label row", v)
		}
	}
	if !reflect.DeepEqual(prev.LabelRanks(), before) {
		t.Fatalf("the patch wrote into its predecessor's ranks: %v, were %v", prev.LabelRanks(), before)
	}
}
