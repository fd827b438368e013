package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// csrOf returns rows as a CSR, built through an edit of the empty one.
func csrOf(rows [][]int32) CSR {
	e := CSR{}.Edit()
	for v, row := range rows {
		e.Append()
		e.Set(int32(v), row)
	}
	c, _ := e.Freeze()
	return c
}

// rowsOf reads n rows of a CSR, or of an edit, back into slices of their
// own.
func rowsOf(n int, row func(int32) []int32) [][]int32 {
	rows := make([][]int32, n)
	for v := range rows {
		rows[v] = slices.Clone(row(int32(v)))
	}
	return rows
}

func sameRows(a, b [][]int32) bool { return slices.EqualFunc(a, b, slices.Equal[[]int32]) }

// TestCSREditLeavesPredecessor drives chains of edits — rows grown, shrunk,
// emptied and given self-loops on every side of a page boundary, nodes
// appended at 0, 511, 512, 513 and 1025 and beyond, an edit abandoned midway
// — against a model of per-row slices, and holds every earlier CSR to the
// rows it read when it was frozen. An edit rebuilds only pages it wrote a
// row of.
func TestCSREditLeavesPredecessor(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 1025} {
		rng := rand.New(rand.NewSource(int64(n)))
		model := make([][]int32, n)
		for v := range model {
			for k := rng.Intn(6); k > 0; k-- {
				model[v] = append(model[v], rng.Int31n(int32(n)))
			}
			slices.Sort(model[v])
			model[v] = slices.Compact(model[v])
		}
		cur := csrOf(model)
		history := []CSR{cur}
		wants := [][][]int32{model}
		for step := 0; step < 40; step++ {
			e := cur.Edit()
			next := slices.Clone(model)
			written := map[int]bool{}
			appends := rng.Intn(3)
			if step == 0 {
				appends = 1 // the first node past the start: 0, 1, 511, 512, 513 or 1025
			}
			for ; appends > 0; appends-- {
				if len(next)&pageMask != 0 {
					written[len(next)>>pageBits] = true // the partial last page is rebuilt
				}
				e.Append()
				next = append(next, nil)
			}
			for k := rng.Intn(5); k > 0 && len(next) > 0; k-- {
				v := int32([]int{0, 510, 511, 512, 513, len(next) - 1, rng.Intn(len(next))}[rng.Intn(7)])
				if int(v) >= len(next) {
					continue
				}
				row := e.Own(v)
				switch rng.Intn(4) {
				case 0: // grow
					for j := rng.Intn(4) + 1; j > 0; j-- {
						w := rng.Int31n(int32(len(next)))
						if i, found := slices.BinarySearch(row, w); !found {
							row = slices.Insert(row, i, w)
						}
					}
				case 1: // shrink
					if len(row) > 0 {
						i := rng.Intn(len(row))
						row = slices.Delete(row, i, i+1)
					}
				case 2: // empty
					row = nil
				case 3: // self-loop
					if i, found := slices.BinarySearch(row, v); !found {
						row = slices.Insert(row, i, v)
					}
				}
				e.Set(v, row)
				next[v] = slices.Clone(row)
				written[int(v)>>pageBits] = true
			}
			if !sameRows(rowsOf(e.n, e.Row), next) {
				t.Fatalf("n=%d step %d: the edit reads differently from its model", n, step)
			}
			if rng.Intn(4) == 0 {
				continue // abandoned: cur and model stand
			}
			frozen, rebuilt := e.Freeze()
			if !sameRows(rowsOf(frozen.Len(), frozen.Row), next) {
				t.Fatalf("n=%d step %d: the frozen CSR reads differently from its model", n, step)
			}
			if rebuilt > len(written) {
				t.Fatalf("n=%d step %d: %d pages rebuilt, writes touched %d", n, step, rebuilt, len(written))
			}
			cur, model = frozen, next
			history, wants = append(history, cur), append(wants, model)
			for i, c := range history {
				if !sameRows(rowsOf(c.Len(), c.Row), wants[i]) {
					t.Fatalf("n=%d step %d: CSR %d changed after it was frozen", n, step, i)
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
		adopted := FromParts(built.Labels(), nodeLbl, csrOf(refOut), csrOf(refIn), byLabel, built.NumEdges(), "", nil, Delta{})
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
// members — its adjacency spans pages — equals NewBall, and a small ball
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
