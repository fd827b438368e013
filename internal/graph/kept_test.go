package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// viewGraph is a random directed graph of n nodes and about e edges with the
// shapes a view's BFS must get right: self-loops, 2-cycles, and a hub joined
// to about a third of the graph in both directions.
func viewGraph(n, e, labels int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(nil)
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("L%d", rng.Intn(labels)))
	}
	for i := 0; i < e; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		_ = b.AddEdge(u, v)
		switch rng.Intn(8) {
		case 0:
			_ = b.AddEdge(v, u) // a 2-cycle
		case 1:
			_ = b.AddEdge(u, u) // a self-loop
		}
	}
	hub := int32(rng.Intn(n))
	for i := 0; i < n/3; i++ {
		if w := int32(rng.Intn(n)); rng.Intn(2) == 0 {
			_ = b.AddEdge(hub, w)
		} else {
			_ = b.AddEdge(w, hub)
		}
	}
	return b.Build()
}

// keptSample returns size distinct nodes of g, ascending; with closed set,
// every sampled node's neighbours join it, so kept nodes sit next to each
// other across every BFS level.
func keptSample(rng *rand.Rand, g *Graph, size int, closed bool) []int32 {
	set := NewNodeSet(g.NumNodes())
	for _, v := range rng.Perm(g.NumNodes())[:size] {
		set.Add(int32(v))
		if closed {
			for _, w := range append(g.Out(int32(v)), g.In(int32(v))...) {
				set.Add(w)
			}
		}
	}
	return set.Slice()
}

// TestViewIsRestrictedBall is the differential test of the kept graph and
// its views. The kept graph is the subgraph induced by the kept nodes, rows
// and labels read off the parent. A view of a kept center at radius 0–4 has
// exactly the members of NewBall's ball that are kept, with the ball's
// distances, and as many edges as the ball has between two of them — on
// graphs with self-loops, 2-cycles and a hub, for kept sets from one node to
// the whole graph; the kept graph built for each radius.
func TestViewIsRestrictedBall(t *testing.T) {
	var build, views BallScratch
	checked := 0
	for gi, tc := range []struct{ n, e, labels int }{
		{1, 0, 1}, {2, 1, 1}, {30, 40, 2}, {120, 200, 3}, {200, 500, 4}, {60, 30, 2},
	} {
		g := viewGraph(tc.n, tc.e, tc.labels, int64(gi)+31)
		rng := rand.New(rand.NewSource(int64(gi)))
		for ki, size := range []int{1, 2, tc.n / 10, tc.n / 3, tc.n} {
			if size = min(size, tc.n); size == 0 {
				continue
			}
			kept := keptSample(rng, g, size, ki%2 == 1)
			for radius := 0; radius <= 4; radius++ {
				// Built for the radius, as a query builds it: below 2 the
				// kept graph has no neighbour index.
				k := build.Kept(g, kept, radius)
				ctx := fmt.Sprintf("graph %d kept %d (%d nodes)", gi, ki, len(kept))
				checkKeptGraph(t, g, k, ctx)
				for _, c := range kept {
					ctx := fmt.Sprintf("%s r=%d c=%d", ctx, radius, c)
					full := NewBall(g, c, radius)
					var members, dist []int32
					for i, v := range full.Orig {
						if j, ok := slices.BinarySearch(kept, v); ok {
							members, dist = append(members, int32(j)), append(dist, full.Dist[i])
						}
					}
					edges := 0
					for v := int32(0); v < int32(full.G.NumNodes()); v++ {
						for _, w := range full.G.Out(v) {
							_, vk := slices.BinarySearch(kept, full.Orig[v])
							_, wk := slices.BinarySearch(kept, full.Orig[w])
							if vk && wk {
								edges++
							}
						}
					}
					view := views.View(k, c, radius)
					if !slices.Equal(view.Members, members) || !slices.Equal(view.Dist, dist) {
						t.Fatalf("%s: members %v at %v, want %v at %v", ctx, view.Members, view.Dist, members, dist)
					}
					if view.G != k.G || view.Orig[view.Center] != c || view.Radius != radius {
						t.Fatalf("%s: graph, center %d or radius %d is not the kept graph's", ctx, view.Center, view.Radius)
					}
					if view.NumNodes() != len(members) || view.NumEdges() != edges {
						t.Fatalf("%s: %d nodes and %d edges, want %d and %d", ctx, view.NumNodes(), view.NumEdges(), len(members), edges)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d views checked", checked)
}

// checkKeptGraph holds a kept graph to the subgraph of g induced by its kept
// nodes: labels, both directions' rows and the label index.
func checkKeptGraph(t *testing.T, g *Graph, k *KeptGraph, ctx string) {
	t.Helper()
	if k.G.NumNodes() != len(k.Kept) {
		t.Fatalf("%s: %d nodes for %d kept", ctx, k.G.NumNodes(), len(k.Kept))
	}
	cut := func(row []int32) []int32 {
		var ids []int32
		for _, w := range row {
			if j, ok := slices.BinarySearch(k.Kept, w); ok {
				ids = append(ids, int32(j))
			}
		}
		return ids
	}
	edges := 0
	for i, v := range k.Kept {
		id := int32(i)
		if k.G.Label(id) != g.Label(v) {
			t.Fatalf("%s: kept %d labelled %d, parent %d", ctx, i, k.G.Label(id), g.Label(v))
		}
		if got, want := k.G.Out(id), cut(g.Out(v)); !slices.Equal(got, want) {
			t.Fatalf("%s: out-row of %d is %v, want %v", ctx, i, got, want)
		}
		if got, want := k.G.In(id), cut(g.In(v)); !slices.Equal(got, want) {
			t.Fatalf("%s: in-row of %d is %v, want %v", ctx, i, got, want)
		}
		if row := k.G.NodesWithLabel(k.G.Label(id)); row[k.G.LabelRanks()[id]] != id {
			t.Fatalf("%s: kept %d is not at its rank in its label row", ctx, i)
		}
		edges += len(k.G.Out(id))
	}
	if k.G.NumEdges() != edges {
		t.Fatalf("%s: %d edges counted, rows hold %d", ctx, k.G.NumEdges(), edges)
	}
}

// TestViewReadsNoRowUpToRadiusTwo: a view at radius ≤ 2 reads no adjacency
// row of the parent — the center's own row was decoded when the kept graph
// was built — and one at radius 3 reads two a node at distance 1 that is not
// kept, none for a kept one.
func TestViewReadsNoRowUpToRadiusTwo(t *testing.T) {
	g := viewGraph(300, 900, 3, 5)
	kept := keptSample(rand.New(rand.NewSource(5)), g, 40, false)
	var build, views BallScratch
	k := build.Kept(g, kept, 3)
	if _, _, rows := build.Stats(); rows != 2*int64(len(kept)) {
		t.Fatalf("the kept graph read %d rows, want two a kept node (%d)", rows, 2*len(kept))
	}
	for _, c := range kept {
		for radius := 0; radius <= 3; radius++ {
			_, _, before := views.Stats()
			views.View(k, c, radius)
			_, _, after := views.Stats()
			want := int64(0)
			if radius == 3 {
				full := NewBall(g, c, 1)
				for i, v := range full.Orig {
					if _, ok := slices.BinarySearch(kept, v); !ok && full.Dist[i] == 1 {
						want += 2
					}
				}
			}
			if after-before != want {
				t.Fatalf("c=%d r=%d: the view read %d rows, want %d", c, radius, after-before, want)
			}
		}
	}
}

// TestViewAllocFree: in steady state neither a view nor a rebuild of the
// kept graph allocates, and every view counts as a ball build.
func TestViewAllocFree(t *testing.T) {
	g := viewGraph(500, 1500, 4, 9)
	kept := keptSample(rand.New(rand.NewSource(9)), g, 60, true)
	var build, views BallScratch
	k := build.Kept(g, kept, 4)
	for _, c := range kept {
		views.View(k, c, 3) // warm the buffers on every center
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		views.View(k, kept[i%len(kept)], 1+i%3)
		i++
	}); allocs != 0 {
		t.Fatalf("a view allocates %.1f times; want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { build.Kept(g, kept, 4) }); allocs != 0 {
		t.Fatalf("a kept graph rebuild allocates %.1f times; want 0", allocs)
	}
	if builds, _, _ := views.Stats(); builds < int64(len(kept))+200 {
		t.Fatalf("views must count as ball builds: %d", builds)
	}
	if builds, _, _ := build.Stats(); builds != 0 {
		t.Fatalf("a kept graph is not a ball, but %d builds were counted", builds)
	}
}
