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
// cur, of the nodes within radius undirected hops of that seed when its label
// in old or in cur is in standing, and within radius−1 hops otherwise, each
// seed searched on its own. A seed old does not hold is skipped there.
func naiveDirty(old, cur *graph.Graph, seeds []int32, radius int, standing map[int32]bool) []int32 {
	in := make(map[int32]bool)
	for _, g := range []*graph.Graph{old, cur} {
		for _, seed := range seeds {
			if int(seed) >= g.NumNodes() {
				continue
			}
			reach := radius - 1
			if standing[cur.Label(seed)] || int(seed) < old.NumNodes() && standing[old.Label(seed)] {
				reach = radius
			}
			if reach < 0 {
				continue
			}
			dist := map[int32]int{seed: 0}
			frontier := []int32{seed}
			for d := 1; d <= reach; d++ {
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
// Seeds 0-3 draw every label from a 4-letter alphabet, all of which the
// patterns use, so every seed is swept to the full radius; seeds 4-9 draw
// from 12 labels and their patterns from 3 of them, so most seeds carry no
// standing label and are swept one hop less.
func TestDirtySweepAgainstNaive(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			alphabet := []string{"A", "B", "C", "D"}
			patternAlphabet := alphabet
			if seed >= 4 {
				alphabet = make([]string, 12)
				for i := range alphabet {
					alphabet[i] = fmt.Sprintf("L%d", i)
				}
				patternAlphabet = alphabet[:3]
			}
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
					sq, err := s.Register(randomPatternSrc(rng, patternAlphabet, radius))
					if err != nil {
						t.Fatal(err)
					}
					standing = append(standing, sq)
				}
			}

			standingLbl := make(map[int32]bool)
			for _, sq := range standing {
				for _, lbl := range sq.labels {
					standingLbl[lbl] = true
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

			var levels [2]int // seeds that carry a standing label, and the others
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
				for _, v := range seeds {
					if standingLbl[cur.Label(v)] || int(v) < old.NumNodes() && standingLbl[old.Label(v)] {
						levels[0]++
					} else {
						levels[1]++
					}
				}
				for radius := 0; radius <= 4; radius++ {
					want := naiveDirty(old, cur, seeds, radius, standingLbl)
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
			if seed >= 4 && (levels[0] == 0 || levels[1] == 0) {
				t.Fatalf("%d seeds carried a standing label and %d did not: the wide alphabet must give both", levels[0], levels[1])
			}
		})
	}
}

// TestDirtySweepBorder pins the sweep's two reaches at their borders: center
// 0 of a radius-2 pattern a:A -> b:B -> c:C and mutations 2 hops from it, or
// 1 hop for a node that carries no pattern label. A mutation that touches a
// node carrying a pattern label 2 hops out re-evaluates 0, as does deleting
// an unlabelled node 1 hop out that a labelled node's only short path runs
// through; an edge between two unlabelled nodes 2 hops out does not hand 0
// to the query. Every step changes 0's outcome except the unlabelled edge,
// and the standing result is held to a scratch Match after each.
func TestDirtySweepBorder(t *testing.T) {
	// 1:A -> 0:B -> 2:C is the match at 0. At 2 hops from 0: 3:B and 5:X
	// behind 1, 4:C, 6:X and 7:X beside 2, and 9:C, which 3:B points to,
	// behind 8:X.
	b := graph.NewBuilder(nil)
	for _, l := range []string{"B", "A", "C", "B", "C", "X", "X", "X", "X", "C"} {
		b.AddNode(l)
	}
	for _, e := range [][2]int32{{1, 0}, {0, 2}, {1, 3}, {4, 2}, {1, 5}, {2, 6}, {3, 7}, {7, 2}, {0, 8}, {8, 9}, {3, 9}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	s := NewStore(b.Build(), Config{Workers: 2})
	sq, err := s.Register("node a A\nnode b B\nnode c C\nedge a b\nedge b c")
	if err != nil {
		t.Fatal(err)
	}
	if sq.Radius() != 2 {
		t.Fatalf("pattern radius %d, want 2", sq.Radius())
	}
	const c = 0
	var dirty, handed []int32
	s.dispatched = func(_ int, d *graph.NodeSet, group []*StandingQuery) {
		dirty, handed = d.Slice(), slices.Clone(group[0].eval)
	}
	hopsFrom := func(v int32, hops int) bool { // v is exactly hops from c
		g := s.Current().Graph()
		every := map[int32]bool{g.Label(c): true} // c is the one seed: sweep it to the full reach
		return slices.Contains(naiveDirty(g, g, []int32{c}, hops, every), v) &&
			!slices.Contains(naiveDirty(g, g, []int32{c}, hops-1, every), v)
	}

	for _, step := range []struct {
		name  string
		mut   Mutation
		nodes []int32 // the mutated nodes
		hops  int     // their distance from c
		eval  bool    // c is handed to the query and its outcome moves
	}{
		{"edge between unlabelled nodes", Mutation{Op: OpInsertEdge, U: 5, V: 6}, []int32{5, 6}, 2, false},
		{"edge between labelled nodes", Mutation{Op: OpInsertEdge, U: 3, V: 4}, []int32{3, 4}, 2, true},
		{"labelled node deleted", Mutation{Op: OpDeleteNode, Node: 4}, []int32{4}, 2, true},
		{"label set into the pattern", Mutation{Op: OpSetLabel, Node: 7, Label: "C"}, []int32{7}, 2, true},
		{"unlabelled node deleted", Mutation{Op: OpDeleteNode, Node: 8}, []int32{8}, 1, true},
	} {
		for _, v := range step.nodes {
			if !hopsFrom(v, step.hops) {
				t.Fatalf("%s: node %d is not %d hops from %d", step.name, v, step.hops, c)
			}
		}
		before, _ := sq.Result()
		beforeJSON := mustJSON(t, before.Subgraphs)
		dirty, handed = nil, nil
		if _, err := s.Apply([]Mutation{step.mut}); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		checkAgainstScratch(t, s, sq)
		after, _ := sq.Result()
		moved := string(mustJSON(t, after.Subgraphs)) != string(beforeJSON)
		if step.eval {
			if !slices.Contains(handed, c) {
				t.Fatalf("%s: center %d not handed to the query (%v)", step.name, c, handed)
			}
			if !moved {
				t.Fatalf("%s: the result did not move, so the step shows nothing", step.name)
			}
		} else {
			if slices.Contains(dirty, c) || slices.Contains(handed, c) {
				t.Fatalf("%s: center %d dirty (%v) or handed (%v), though no mutated node carries a pattern label", step.name, c, dirty, handed)
			}
			if moved {
				t.Fatalf("%s: the result moved", step.name)
			}
		}
	}
}
