package live

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// naiveDirty is the definition the dirty sweep must meet: the union, over
// every seed and over both the pre-batch graph old and the post-batch graph
// cur, of the nodes within radius undirected hops of that seed, each seed
// searched on its own. A seed old does not hold is skipped there.
func naiveDirty(old, cur *graph.Graph, seeds []int32, radius int) []int32 {
	in := make(map[int32]bool)
	for _, g := range []*graph.Graph{old, cur} {
		for _, seed := range seeds {
			if int(seed) >= g.NumNodes() {
				continue
			}
			dist := map[int32]int{seed: 0}
			frontier := []int32{seed}
			for d := 1; d <= radius; d++ {
				var next []int32
				for _, v := range frontier {
					for _, w := range append(g.Out(v), g.In(v)...) {
						if _, seen := dist[w]; !seen {
							dist[w] = d
							next = append(next, w)
						}
					}
				}
				frontier = next
			}
			for v := range dist {
				in[v] = true
			}
		}
	}
	out := make([]int32, 0, len(in))
	for v := range in {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// batchKinds are the batches TestDirtySweepAgainstNaive draws, one kind per
// batch: each makes a side of the sweep (or both) the one that must be read.
var batchKinds = []string{"insert", "delete", "mixed", "toggle", "set_label", "add_node", "delete_node"}

// kindBatch builds a valid batch of the given kind against g, with no
// mutation that is a no-op, and returns it with its seeds: the nodes whose
// neighbourhood it made dirty, added nodes named by the ids they will get.
func kindBatch(rng *rand.Rand, kind string, g *graph.Graph, alphabet []string) (muts []Mutation, seeds []int32) {
	var alive []int32
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if g.LabelName(v) != TombstoneLabel {
			alive = append(alive, v)
		}
	}
	edges := g.EdgeList()
	used := map[[2]int32]bool{}
	insert := func(u, v int32) bool { // a fresh edge between nodes of the batch's graph
		e := [2]int32{u, v}
		if used[e] || (int(u) < g.NumNodes() && int(v) < g.NumNodes() && g.HasEdge(u, v)) {
			return false
		}
		used[e] = true
		muts = append(muts, Mutation{Op: OpInsertEdge, U: u, V: v})
		seeds = append(seeds, u, v)
		return true
	}
	remove := func() {
		for tries := 0; tries < 8 && len(edges) > 0; tries++ {
			e := edges[rng.Intn(len(edges))]
			if !used[e] {
				used[e] = true
				muts = append(muts, Mutation{Op: OpDeleteEdge, U: e[0], V: e[1]})
				seeds = append(seeds, e[0], e[1])
				return
			}
		}
	}
	randomInsert := func() {
		for tries := 0; tries < 8; tries++ {
			if insert(alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]) {
				return
			}
		}
	}

	switch kind {
	case "insert":
		for k := 1 + rng.Intn(4); k > 0; k-- {
			randomInsert()
		}
	case "delete":
		for k := 1 + rng.Intn(4); k > 0; k-- {
			remove()
		}
	case "mixed":
		randomInsert()
		remove()
		if rng.Intn(2) == 0 {
			randomInsert()
		} else {
			remove()
		}
	case "toggle": // one edge inserted and deleted again, or the reverse
		if rng.Intn(2) == 0 || len(edges) == 0 {
			for tries := 0; tries < 8; tries++ {
				if u, v := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]; insert(u, v) {
					muts = append(muts, Mutation{Op: OpDeleteEdge, U: u, V: v})
					break
				}
			}
		} else {
			e := edges[rng.Intn(len(edges))]
			muts = append(muts, Mutation{Op: OpDeleteEdge, U: e[0], V: e[1]},
				Mutation{Op: OpInsertEdge, U: e[0], V: e[1]})
			seeds = append(seeds, e[0], e[1], e[0], e[1])
		}
	case "set_label":
		for k := 1 + rng.Intn(3); k > 0; k-- {
			v := alive[rng.Intn(len(alive))]
			if slices.ContainsFunc(muts, func(m Mutation) bool { return m.Node == v }) {
				continue
			}
			lbl := alphabet[rng.Intn(len(alphabet))]
			if lbl == g.LabelName(v) {
				continue
			}
			muts = append(muts, Mutation{Op: OpSetLabel, Node: v, Label: lbl})
			seeds = append(seeds, v)
		}
	case "add_node":
		next := int32(g.NumNodes())
		for k := 1 + rng.Intn(2); k > 0; k-- {
			v := next
			next++
			muts = append(muts, Mutation{Op: OpAddNode, Label: alphabet[rng.Intn(len(alphabet))]})
			seeds = append(seeds, v)
			for e := rng.Intn(4); e > 0; e-- {
				w := alive[rng.Intn(len(alive))]
				if rng.Intn(2) == 0 {
					insert(v, w)
				} else {
					insert(w, v)
				}
			}
			if v > int32(g.NumNodes()) {
				insert(v-1, v)
			}
		}
	case "delete_node":
		v := alive[rng.Intn(len(alive))]
		muts = append(muts, Mutation{Op: OpDeleteNode, Node: v})
		seeds = append(seeds, v)
	}
	return muts, seeds
}

// TestDirtySweepAgainstNaive is the differential test of the dirty sweep:
// random batches of every kind on small random graphs, with two standing
// queries at each radius 0-4. After every batch the dirty set handed to each
// radius group equals naiveDirty at that radius, each query's eval list is
// exactly those dirty centers that carry one of its pattern's labels after
// the batch, ascending, and every standing result equals a scratch Match.
func TestDirtySweepAgainstNaive(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			alphabet := []string{"A", "B", "C", "D"}
			b := graph.NewBuilder(nil)
			n := 20 + rng.Intn(30)
			for i := 0; i < n; i++ {
				b.AddNode(alphabet[rng.Intn(len(alphabet))])
			}
			for i := 0; i < 3*n/2; i++ {
				_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
			}
			s := NewStore(b.Build(), Config{Workers: 2})
			var standing []*StandingQuery
			for radius := 0; radius <= 4; radius++ {
				for k := 0; k < 2; k++ {
					sq, err := s.Register(randomPatternSrc(rng, alphabet, radius))
					if err != nil {
						t.Fatal(err)
					}
					standing = append(standing, sq)
				}
			}

			type handed struct {
				dirty []int32
				eval  map[int64][]int32
			}
			var got map[int]handed
			s.dispatched = func(radius int, dirty *graph.NodeSet, group []*StandingQuery) {
				if _, dup := got[radius]; dup {
					t.Errorf("radius %d handed out twice in one batch", radius)
				}
				h := handed{dirty: dirty.Slice(), eval: make(map[int64][]int32)}
				for _, sq := range group {
					if sq.Radius() != radius {
						t.Errorf("query %d of radius %d in the radius-%d group", sq.ID(), sq.Radius(), radius)
					}
					h.eval[sq.ID()] = slices.Clone(sq.eval)
				}
				got[radius] = h
			}

			for step := 0; step < 140; step++ {
				kind := batchKinds[step%len(batchKinds)]
				old := s.Current().Graph()
				muts, seeds := kindBatch(rng, kind, old, alphabet)
				if len(muts) == 0 {
					continue
				}
				got = make(map[int]handed)
				if _, err := s.Apply(muts); err != nil {
					t.Fatalf("step %d (%s): apply %v: %v", step, kind, muts, err)
				}
				cur := s.Current().Graph()
				for radius := 0; radius <= 4; radius++ {
					want := naiveDirty(old, cur, seeds, radius)
					h, ok := got[radius]
					if !ok {
						t.Fatalf("step %d (%s): radius %d never handed out", step, kind, radius)
					}
					if !slices.Equal(h.dirty, want) {
						t.Fatalf("step %d (%s) %v: radius %d dirty\n got %v\nwant %v", step, kind, muts, radius, h.dirty, want)
					}
				}
				for _, sq := range standing {
					var want []int32
					for _, c := range got[sq.Radius()].dirty {
						if slices.Contains(sq.labels, cur.Label(c)) {
							want = append(want, c)
						}
					}
					if ev := got[sq.Radius()].eval[sq.ID()]; !slices.Equal(ev, want) {
						t.Fatalf("step %d (%s) %v: query %d (radius %d) handed\n got %v\nwant %v", step, kind, muts, sq.ID(), sq.Radius(), ev, want)
					}
					checkAgainstScratch(t, s, sq)
				}
			}
		})
	}
}
