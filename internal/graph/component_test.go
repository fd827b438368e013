package graph

import (
	"reflect"
	"sort"
	"testing"
)

func sortComps(comps [][]int32) {
	for _, c := range comps {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(nil)
	for i := 0; i < 7; i++ {
		b.AddNode("X")
	}
	// Component {0,1,2} via mixed directions, {3,4}, singletons {5}, {6}.
	for _, e := range [][2]int32{{0, 1}, {2, 1}, {3, 4}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	comps := ConnectedComponents(g)
	sortComps(comps)
	want := [][]int32{{0, 1, 2}, {3, 4}, {5}, {6}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("components = %v, want %v", comps, want)
	}
	if g.IsConnected() {
		t.Fatal("graph should not be connected")
	}

	got := ComponentOf(g, 2)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, []int32{0, 1, 2}) {
		t.Fatalf("ComponentOf(2) = %v", got)
	}
}

func TestComponentWithin(t *testing.T) {
	g := chain(t, 6) // 0->1->2->3->4->5
	member := SetOf(6, 0, 1, 2, 4, 5)
	comp := NewNodeSet(6)
	got := ComponentWithin(g, 1, member, comp, nil)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, []int32{0, 1, 2}) {
		t.Fatalf("ComponentWithin = %v, want [0 1 2]", got)
	}
	if !comp.Equal(SetOf(6, 0, 1, 2)) {
		t.Fatalf("ComponentWithin marked %v, want [0 1 2]", comp.Slice())
	}
	comp.Clear()
	if got := ComponentWithin(g, 3, member, comp, got); len(got) != 0 || !comp.Empty() {
		t.Fatal("start outside membership should give an empty component")
	}
	// A kept queue is reused: the second walk allocates nothing.
	queue := ComponentWithin(g, 5, member, comp, got)
	if allocs := testing.AllocsPerRun(10, func() {
		comp.Clear()
		queue = ComponentWithin(g, 5, member, comp, queue)
	}); allocs != 0 || len(queue) != 2 {
		t.Fatalf("ComponentWithin(5) = %v with %.0f allocations, want [5 4] with none", queue, allocs)
	}
}

func TestIsConnectedEmptyAndSingleton(t *testing.T) {
	if !NewBuilder(nil).Build().IsConnected() {
		t.Fatal("empty graph should count as connected")
	}
	b := NewBuilder(nil)
	b.AddNode("X")
	if !b.Build().IsConnected() {
		t.Fatal("singleton should be connected")
	}
}

func TestStronglyConnectedComponents(t *testing.T) {
	b := NewBuilder(nil)
	for i := 0; i < 6; i++ {
		b.AddNode("X")
	}
	// SCCs: {0,1,2} (cycle), {3,4} (cycle), {5}.
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 3}, {4, 5}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	comps := StronglyConnectedComponents(g)
	sortComps(comps)
	want := [][]int32{{0, 1, 2}, {3, 4}, {5}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("SCCs = %v, want %v", comps, want)
	}
}

func TestSCCOnDAG(t *testing.T) {
	g := buildDiamond(t)
	comps := StronglyConnectedComponents(g)
	if len(comps) != 4 {
		t.Fatalf("DAG should have one SCC per node, got %d", len(comps))
	}
	if HasDirectedCycle(g) {
		t.Fatal("diamond DAG has no directed cycle")
	}
	if !HasUndirectedCycle(g) {
		t.Fatal("diamond has an undirected cycle")
	}
}

func TestSCCLongCycle(t *testing.T) {
	// One big directed cycle of 50 nodes must be a single SCC.
	b := NewBuilder(nil)
	const n = 50
	for i := 0; i < n; i++ {
		b.AddNode("X")
	}
	for i := 0; i < n; i++ {
		if err := b.AddEdge(int32(i), int32((i+1)%n)); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	comps := StronglyConnectedComponents(g)
	if len(comps) != 1 || len(comps[0]) != n {
		t.Fatalf("want one SCC of %d nodes, got %d comps", n, len(comps))
	}
	if !HasDirectedCycle(g) {
		t.Fatal("cycle not detected")
	}
}

func TestHasUndirectedCycleAntiparallel(t *testing.T) {
	// u ⇄ v is an undirected cycle of length 2 per the paper (AI ⇄ DM in Q1).
	b := NewBuilder(nil)
	u := b.AddNode("X")
	v := b.AddNode("Y")
	if err := b.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(v, u); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if !HasUndirectedCycle(g) {
		t.Fatal("antiparallel pair should form an undirected cycle")
	}
	if !HasDirectedCycle(g) {
		t.Fatal("antiparallel pair should form a directed cycle")
	}
}

func TestNoCycleOnTreeAndChain(t *testing.T) {
	g := chain(t, 5)
	if HasDirectedCycle(g) || HasUndirectedCycle(g) {
		t.Fatal("chain has no cycles")
	}
	// Star: 0 -> {1,2,3}
	b := NewBuilder(nil)
	for i := 0; i < 4; i++ {
		b.AddNode("X")
	}
	for i := 1; i < 4; i++ {
		if err := b.AddEdge(0, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	star := b.Build()
	if HasDirectedCycle(star) || HasUndirectedCycle(star) {
		t.Fatal("star has no cycles")
	}
}

func TestLongestDirectedCycleAtMost(t *testing.T) {
	// Cycle of length 4.
	b := NewBuilder(nil)
	for i := 0; i < 4; i++ {
		b.AddNode("X")
	}
	for i := 0; i < 4; i++ {
		if err := b.AddEdge(int32(i), int32((i+1)%4)); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if ok, decided := LongestDirectedCycleAtMost(g, 4, 100000); !decided || !ok {
		t.Fatalf("cycle length 4 should satisfy bound 4 (ok=%v decided=%v)", ok, decided)
	}
	if ok, decided := LongestDirectedCycleAtMost(g, 3, 100000); !decided || ok {
		t.Fatalf("cycle length 4 should violate bound 3 (ok=%v decided=%v)", ok, decided)
	}
	if _, decided := LongestDirectedCycleAtMost(g, 3, 1); decided {
		t.Fatal("budget 1 cannot decide")
	}
}
