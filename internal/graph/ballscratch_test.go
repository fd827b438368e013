package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomGraph builds a deterministic random graph for scratch stress tests.
func randomGraph(n, edges int, labels int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(nil)
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("L%d", rng.Intn(labels)))
	}
	for i := 0; i < edges; i++ {
		_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

func sameBall(t *testing.T, want, got *Ball, ctx string) {
	t.Helper()
	if want.Center != got.Center || want.Radius != got.Radius {
		t.Fatalf("%s: center/radius (%d,%d) vs (%d,%d)", ctx, want.Center, want.Radius, got.Center, got.Radius)
	}
	if len(want.Orig) != len(got.Orig) {
		t.Fatalf("%s: |ball| %d vs %d", ctx, len(want.Orig), len(got.Orig))
	}
	for i := range want.Orig {
		if want.Orig[i] != got.Orig[i] || want.Dist[i] != got.Dist[i] {
			t.Fatalf("%s: node %d orig/dist (%d,%d) vs (%d,%d)", ctx, i,
				want.Orig[i], want.Dist[i], got.Orig[i], got.Dist[i])
		}
	}
	wg, gg := want.G, got.G
	if wg.NumNodes() != gg.NumNodes() || wg.NumEdges() != gg.NumEdges() {
		t.Fatalf("%s: induced sizes (%d,%d) vs (%d,%d)", ctx,
			wg.NumNodes(), wg.NumEdges(), gg.NumNodes(), gg.NumEdges())
	}
	for v := int32(0); v < int32(wg.NumNodes()); v++ {
		if wg.Label(v) != gg.Label(v) {
			t.Fatalf("%s: label of %d differs", ctx, v)
		}
		if fmt.Sprint(wg.Out(v)) != fmt.Sprint(gg.Out(v)) {
			t.Fatalf("%s: out(%d) %v vs %v", ctx, v, wg.Out(v), gg.Out(v))
		}
		if fmt.Sprint(wg.In(v)) != fmt.Sprint(gg.In(v)) {
			t.Fatalf("%s: in(%d) %v vs %v", ctx, v, wg.In(v), gg.In(v))
		}
	}
	for _, v := range want.Orig {
		if want.ToBall(v) != got.ToBall(v) {
			t.Fatalf("%s: ToBall(%d) %d vs %d", ctx, v, want.ToBall(v), got.ToBall(v))
		}
	}
	if want.ToBall(int32(1e6)) != got.ToBall(int32(1e6)) {
		t.Fatalf("%s: ToBall miss behavior differs", ctx)
	}
	if fmt.Sprint(borderNodes(want)) != fmt.Sprint(borderNodes(got)) {
		t.Fatalf("%s: border %v vs %v", ctx, borderNodes(want), borderNodes(got))
	}
	// The label index must agree too: every label of the induced graph maps
	// to the same node list.
	for v := int32(0); v < int32(wg.NumNodes()); v++ {
		lbl := wg.Label(v)
		if fmt.Sprint(wg.NodesWithLabel(lbl)) != fmt.Sprint(gg.NodesWithLabel(lbl)) {
			t.Fatalf("%s: byLabel(%d) %v vs %v", ctx, lbl,
				wg.NodesWithLabel(lbl), gg.NodesWithLabel(lbl))
		}
		if wr, gr := wg.LabelRanks()[v], gg.LabelRanks()[v]; wr != gr || gg.NodesWithLabel(lbl)[gr] != v {
			t.Fatalf("%s: label rank of %d is %d vs %d", ctx, v, wr, gr)
		}
	}
}

// TestBallScratchMatchesNewBall reuses one scratch across many centers,
// radii and graphs and demands every build be observably identical to a
// fresh NewBall — the property the whole exec pipeline rests on. The
// 700-node graph comes after smaller ones, so the scratch must grow its seen
// set past the capacity it was warmed to, and builds balls of more than one
// adjacency page.
func TestBallScratchMatchesNewBall(t *testing.T) {
	var s BallScratch
	for _, tc := range []struct{ n, e, labels int }{
		{1, 0, 1}, {30, 25, 3}, {200, 600, 5}, {700, 1800, 6}, {120, 80, 2},
	} {
		g := randomGraph(tc.n, tc.e, tc.labels, int64(tc.n)*7+int64(tc.e))
		multiPage := false
		for radius := 0; radius <= 4; radius++ {
			for center := int32(0); center < int32(g.NumNodes()); center += 7 {
				want := NewBall(g, center, radius)
				got := s.Build(g, center, radius)
				sameBall(t, want, got, fmt.Sprintf("n=%d e=%d r=%d c=%d", tc.n, tc.e, radius, center))
				multiPage = multiPage || got.NumNodes() > pageSize
			}
		}
		if tc.n > pageSize && !multiPage {
			t.Fatalf("n=%d: no ball spans more than one %d-node page", tc.n, pageSize)
		}
	}
}

// TestBallScratchSelfLoopAndDense covers self-loops and a clique, where the
// induced adjacency arenas see maximum pressure.
func TestBallScratchSelfLoopAndDense(t *testing.T) {
	b := NewBuilder(nil)
	for i := 0; i < 12; i++ {
		b.AddNode("X")
	}
	for i := int32(0); i < 12; i++ {
		for j := int32(0); j < 12; j++ {
			_ = b.AddEdge(i, j) // includes self-loops
		}
	}
	g := b.Build()
	var s BallScratch
	for center := int32(0); center < 12; center++ {
		sameBall(t, NewBall(g, center, 2), s.Build(g, center, 2), fmt.Sprintf("clique c=%d", center))
	}
}

// TestBallScratchSteadyStateAllocs verifies the point of the scratch: after
// warm-up, rebuilding balls of similar size allocates nothing.
func TestBallScratchSteadyStateAllocs(t *testing.T) {
	g := randomGraph(500, 1200, 4, 11)
	var s BallScratch
	center := int32(0)
	s.Build(g, center, 3) // warm the arenas
	allocs := testing.AllocsPerRun(50, func() {
		center = (center + 13) % int32(g.NumNodes())
		s.Build(g, center, 3)
	})
	// Map growth may still trigger the odd allocation when a much larger
	// ball arrives; steady state must stay essentially allocation-free.
	if allocs > 2 {
		t.Fatalf("scratch ball build allocates %.1f times per ball; want ~0", allocs)
	}
}

// TestBuildRestrictedIsInducedSubBall checks BuildRestricted against the
// definition: the kept members are exactly the ball members in keep plus the
// center, with the full ball's distances, labels and every edge between two
// kept members — read off an independent NewBall.
func TestBuildRestrictedIsInducedSubBall(t *testing.T) {
	var s BallScratch
	for _, tc := range []struct{ n, e, labels int }{
		{1, 0, 1}, {40, 60, 2}, {200, 700, 5}, {150, 90, 3},
	} {
		g := randomGraph(tc.n, tc.e, tc.labels, int64(tc.n)*3+int64(tc.e))
		// keep: the nodes of every other label, so about half the graph,
		// and a center is inside it as often as not.
		keep := NewNodeSet(g.NumNodes())
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if g.Label(v)%2 == 0 {
				keep.Add(v)
			}
		}
		for radius := 0; radius <= 3; radius++ {
			for center := int32(0); center < int32(g.NumNodes()); center += 3 {
				ctx := fmt.Sprintf("n=%d e=%d r=%d c=%d", tc.n, tc.e, radius, center)
				full := NewBall(g, center, radius)
				got := s.BuildRestricted(g, center, radius, keep)
				var wantOrig []int32
				for _, v := range full.Orig {
					if v == center || keep.Contains(v) {
						wantOrig = append(wantOrig, v)
					}
				}
				if fmt.Sprint(got.Orig) != fmt.Sprint(wantOrig) {
					t.Fatalf("%s: members %v, want %v", ctx, got.Orig, wantOrig)
				}
				if got.Radius != radius || got.Orig[got.Center] != center {
					t.Fatalf("%s: radius %d center %d", ctx, got.Radius, got.Center)
				}
				edges := 0
				for i, v := range got.Orig {
					fv := full.ToBall(v)
					if got.Dist[i] != full.Dist[fv] || got.G.Label(int32(i)) != g.Label(v) {
						t.Fatalf("%s: node %d dist/label (%d,%d), want (%d,%d)", ctx, v,
							got.Dist[i], got.G.Label(int32(i)), full.Dist[fv], g.Label(v))
					}
					if got.ToBall(v) != int32(i) {
						t.Fatalf("%s: ToBall(%d) = %d, want %d", ctx, v, got.ToBall(v), i)
					}
					var wantOut, wantIn []int32
					for _, w := range g.Out(v) {
						if id := got.ToBall(w); id >= 0 {
							wantOut = append(wantOut, id)
						}
					}
					for _, w := range g.In(v) {
						if id := got.ToBall(w); id >= 0 {
							wantIn = append(wantIn, id)
						}
					}
					if fmt.Sprint(got.G.Out(int32(i))) != fmt.Sprint(wantOut) || fmt.Sprint(got.G.In(int32(i))) != fmt.Sprint(wantIn) {
						t.Fatalf("%s: adjacency of %d: out %v in %v, want out %v in %v", ctx, v,
							got.G.Out(int32(i)), got.G.In(int32(i)), wantOut, wantIn)
					}
					edges += len(wantOut)
					ids := got.G.NodesWithLabel(g.Label(v))
					if j, ok := slices.BinarySearch(ids, int32(i)); !ok || !slices.IsSorted(ids) {
						t.Fatalf("%s: label index of %d misses ball node %d (pos %d): %v", ctx, g.Label(v), i, j, ids)
					}
				}
				if got.G.NumEdges() != edges {
					t.Fatalf("%s: NumEdges %d, want %d", ctx, got.G.NumEdges(), edges)
				}
				for _, v := range full.Orig {
					if v != center && !keep.Contains(v) && got.ToBall(v) != -1 {
						t.Fatalf("%s: dropped member %d still has ball id %d", ctx, v, got.ToBall(v))
					}
				}
			}
		}
	}
}

// TestBallScratchRestrictedAllocFree: in steady state a restricted build —
// BFS, re-index, adjacency, label index — allocates nothing at all, now that
// no step goes through a map.
func TestBallScratchRestrictedAllocFree(t *testing.T) {
	g := randomGraph(500, 1200, 4, 11)
	keep := NewNodeSet(g.NumNodes())
	for v := int32(0); v < int32(g.NumNodes()); v += 3 {
		keep.Add(v)
	}
	var s BallScratch
	for c := int32(0); c < int32(g.NumNodes()); c++ {
		s.BuildRestricted(g, c, 3, keep) // warm the arenas on every center
	}
	center := int32(0)
	allocs := testing.AllocsPerRun(200, func() {
		center = (center + 13) % int32(g.NumNodes())
		s.BuildRestricted(g, center, 3, keep)
	})
	if allocs != 0 {
		t.Fatalf("restricted ball build allocates %.1f times per ball; want 0", allocs)
	}
	builds, misses, _ := s.Stats()
	if builds < 700 || misses > 40 {
		t.Fatalf("restricted builds must be counted like full ones: %d builds, %d misses", builds, misses)
	}
}
