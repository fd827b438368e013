package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// flatten reads a paged array back element by element.
func flatten[T any](p Paged[T]) []T {
	out := make([]T, p.Len())
	for i := range out {
		out[i] = p.At(int32(i))
	}
	return out
}

// TestPagedEditLeavesPredecessor drives a chain of edits — overwrites on
// every side of a page boundary, appends across one, an edit abandoned
// midway — against a flat model, and holds every earlier array to what it
// read when it was frozen. An edit may copy only pages it wrote into.
func TestPagedEditLeavesPredecessor(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 1025} {
		rng := rand.New(rand.NewSource(int64(n)))
		model := make([]int, n)
		for i := range model {
			model[i] = rng.Int()
		}
		cur := PagedOf(slices.Clone(model))
		type frozen struct {
			p    Paged[int]
			want []int
		}
		history := []frozen{{cur, slices.Clone(model)}}
		for step := 0; step < 40; step++ {
			e := cur.Edit()
			next := slices.Clone(model)
			written := map[int]bool{}
			for k := rng.Intn(4); k > 0 && len(next) > 0; k-- {
				i := []int{0, 510, 511, 512, 513, len(next) - 1, rng.Intn(len(next))}[rng.Intn(7)]
				if i >= len(next) {
					continue
				}
				next[i] = rng.Int()
				e.Set(int32(i), next[i])
				written[i>>pageBits] = true
			}
			for k := rng.Intn(3); k > 0; k-- {
				if len(next)&pageMask != 0 {
					written[len(next)>>pageBits] = true // the partial last page is copied
				}
				next = append(next, rng.Int())
				e.Append(next[len(next)-1])
			}
			if !slices.Equal(flatten(e.Paged), next) || e.Len() != len(next) {
				t.Fatalf("n=%d step %d: the edit reads differently from its model", n, step)
			}
			if e.Copied() > len(written) {
				t.Fatalf("n=%d step %d: %d pages copied, writes touched %d", n, step, e.Copied(), len(written))
			}
			if rng.Intn(4) == 0 {
				continue // abandoned: cur and model stand
			}
			cur, model = e.Freeze(), next
			history = append(history, frozen{cur, slices.Clone(model)})
			for v, f := range history {
				if !slices.Equal(flatten(f.p), f.want) {
					t.Fatalf("n=%d step %d: array %d changed after it was frozen", n, step, v)
				}
			}
		}
	}
}

// TestBuilderFromPartsAcrossPages: on graphs whose node count sits on every
// side of a page boundary, a Builder graph, the same rows handed to FromParts
// and a per-node reference computed from the edge list agree on every row.
func TestBuilderFromPartsAcrossPages(t *testing.T) {
	for _, n := range []int{511, 512, 513, 1025} {
		rng := rand.New(rand.NewSource(int64(n)))
		b := NewBuilder(nil)
		for i := 0; i < n; i++ {
			b.AddNode(fmt.Sprintf("L%d", rng.Intn(7)))
		}
		refOut, refIn := make([][]int32, n), make([][]int32, n)
		seen := map[[2]int32]bool{}
		addEdge := func(u, v int32) {
			_ = b.AddEdge(u, v)
			if !seen[[2]int32{u, v}] {
				seen[[2]int32{u, v}] = true
				refOut[u] = append(refOut[u], v)
				refIn[v] = append(refIn[v], u)
			}
		}
		for i := 0; i < 3*n; i++ {
			addEdge(rng.Int31n(int32(n)), rng.Int31n(int32(n)))
		}
		// Rows of the last node of one page and the first of the next.
		for _, v := range []int32{0, 510, 511, 512, int32(n - 1)} {
			if int(v) < n {
				addEdge(v, int32(n-1)-v)
				addEdge(int32(n-1)-v, v)
			}
		}
		built := b.Build()

		nodeLbl := make([]int32, n)
		byLabel := make(map[int32][]int32)
		for v := int32(0); v < int32(n); v++ {
			slices.Sort(refOut[v])
			slices.Sort(refIn[v])
			nodeLbl[v] = built.Label(v)
			byLabel[nodeLbl[v]] = append(byLabel[nodeLbl[v]], v)
		}
		adopted := FromParts(built.Labels(), nodeLbl, PagedOf(refOut), PagedOf(refIn), byLabel, built.NumEdges(), "", nil, Delta{})
		out, in := built.Rows()
		shared := FromParts(built.Labels(), nodeLbl, out, in, nil, built.NumEdges(), "", built, Delta{})

		for _, g := range []*Graph{built, adopted, shared} {
			if g.NumNodes() != n || g.NumEdges() != len(seen) {
				t.Fatalf("n=%d: graph has %d nodes, %d edges, want %d and %d", n, g.NumNodes(), g.NumEdges(), n, len(seen))
			}
			for v := int32(0); v < int32(n); v++ {
				if !slices.Equal(g.Out(v), refOut[v]) || !slices.Equal(g.In(v), refIn[v]) {
					t.Fatalf("n=%d: rows of node %d are %v / %v, want %v / %v", n, v, g.Out(v), g.In(v), refOut[v], refIn[v])
				}
				if g.Degree(v) != len(refOut[v])+len(refIn[v]) {
					t.Fatalf("n=%d: degree of node %d", n, v)
				}
			}
			if len(g.EdgeList()) != len(seen) {
				t.Fatalf("n=%d: EdgeList lists %d edges, want %d", n, len(g.EdgeList()), len(seen))
			}
		}
	}
}

// TestBallScratchAcrossPages: a scratch ball with more than one page of
// members — its row headers span pages — equals NewBall, and a small ball
// built next on the same scratch does not read the large one's pages.
func TestBallScratchAcrossPages(t *testing.T) {
	g := randomGraph(1500, 6000, 5, 11)
	var s BallScratch
	for _, tc := range []struct {
		center int32
		radius int
	}{{7, 4}, {900, 1}, {1200, 5}, {3, 0}} {
		want := NewBall(g, tc.center, tc.radius)
		got := s.Build(g, tc.center, tc.radius)
		sameBall(t, want, got, fmt.Sprintf("center %d radius %d", tc.center, tc.radius))
		if tc.radius >= 4 && got.NumNodes() <= pageSize {
			t.Fatalf("center %d radius %d: the ball has %d members, the test needs more than a page", tc.center, tc.radius, got.NumNodes())
		}
	}
}

// TestSmallDiameterMatchesBFS holds the word-parallel diameter of graphs up
// to 64 nodes to the per-node BFS, disconnected graphs included.
func TestSmallDiameterMatchesBFS(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		if seed%10 == 0 {
			n = 64
		}
		g := randomGraph(n, rng.Intn(2*n+1), 3, seed)
		d, ok := smallDiameter(g)
		wd, wok := bfsDiameter(g)
		if d != wd || ok != wok {
			t.Fatalf("seed %d (%d nodes): smallDiameter = (%d,%v), BFS gives (%d,%v)", seed, n, d, ok, wd, wok)
		}
	}
}
