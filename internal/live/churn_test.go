package live

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/graph"
)

// checkSignatures asserts that a version's graph — whose label rows, label
// ranks and neighbour-label signatures every publish since version 0 patched
// from its predecessor's — carries exactly what a Builder derives from the
// same nodes and edges.
func checkSignatures(t testing.TB, g *graph.Graph) {
	t.Helper()
	b := graph.NewBuilder(g.Labels()) // every name is interned: nothing is added
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		b.AddNode(g.LabelName(v))
	}
	g.Edges(func(u, v int32) { _ = b.AddEdge(u, v) })
	want := b.Build()
	if !slices.Equal(g.LabelRanks(), want.LabelRanks()) {
		t.Fatalf("%s: patched label ranks differ from a rebuild", g.Name())
	}
	for lbl := int32(0); lbl < int32(g.Labels().Len()); lbl++ {
		if !slices.Equal(g.NodesWithLabel(lbl), want.NodesWithLabel(lbl)) ||
			!slices.Equal(g.SigsWithLabel(lbl), want.SigsWithLabel(lbl)) {
			t.Fatalf("%s: label %q: patched row or signatures differ from a rebuild", g.Name(), g.Labels().Name(lbl))
		}
	}
}

// randomPatternSrc builds a small random connected pattern over the given
// label alphabet, in the text format Register accepts.
func randomPatternSrc(rng *rand.Rand, alphabet []string) string {
	n := 1 + rng.Intn(3)
	src := ""
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("node p%d %s\n", i, alphabet[rng.Intn(len(alphabet))])
	}
	for i := 1; i < n; i++ {
		p := rng.Intn(i)
		if rng.Intn(2) == 0 {
			src += fmt.Sprintf("edge p%d p%d\n", p, i)
		} else {
			src += fmt.Sprintf("edge p%d p%d\n", i, p)
		}
	}
	return src
}

// randomBatch builds a valid batch of 1-4 mutations against the current
// graph, tracking which node ids are alive (not tombstoned).
func randomBatch(rng *rand.Rand, g *graph.Graph, alive []int32, alphabet []string) []Mutation {
	var muts []Mutation
	k := 1 + rng.Intn(4)
	for i := 0; i < k; i++ {
		switch rng.Intn(10) {
		case 0: // add a node (occasionally with a brand-new label)
			label := alphabet[rng.Intn(len(alphabet))]
			if rng.Intn(4) == 0 {
				label = fmt.Sprintf("L%d", rng.Intn(1000))
			}
			muts = append(muts, Mutation{Op: OpAddNode, Label: label})
		case 1: // delete a random alive node
			if len(alive) > 1 {
				muts = append(muts, Mutation{Op: OpDeleteNode, Node: alive[rng.Intn(len(alive))]})
				continue
			}
			fallthrough
		default: // toggle a random edge between alive nodes
			u := alive[rng.Intn(len(alive))]
			v := alive[rng.Intn(len(alive))]
			if g.HasEdge(u, v) {
				muts = append(muts, Mutation{Op: OpDeleteEdge, U: u, V: v})
			} else {
				muts = append(muts, Mutation{Op: OpInsertEdge, U: u, V: v})
			}
		}
	}
	return dropConflicts(muts, g)
}

// dropConflicts removes mutations invalidated by earlier ones in the same
// batch (double toggles of one edge, edges touching a node the batch
// deletes, double deletes), since Apply is all-or-nothing.
func dropConflicts(muts []Mutation, g *graph.Graph) []Mutation {
	deleted := map[int32]bool{}
	inserted := map[[2]int32]bool{}
	removed := map[[2]int32]bool{}
	var out []Mutation
	for _, m := range muts {
		switch m.Op {
		case OpInsertEdge:
			e := [2]int32{m.U, m.V}
			if deleted[m.U] || deleted[m.V] || inserted[e] || removed[e] {
				continue
			}
			inserted[e] = true
			out = append(out, m)
		case OpDeleteEdge:
			e := [2]int32{m.U, m.V}
			if deleted[m.U] || deleted[m.V] || inserted[e] || removed[e] {
				continue
			}
			removed[e] = true
			out = append(out, m)
		case OpDeleteNode:
			if deleted[m.Node] {
				continue
			}
			deleted[m.Node] = true
			out = append(out, m)
		default:
			out = append(out, m)
		}
	}
	return out
}

// TestChurnEquivalence is the acceptance soak test: interleave random
// update batches with standing-query registration and unregistration, and
// after every batch assert each standing result set is byte-identical to
// engine.Match re-run from scratch on the post-update graph at the same
// version — as is a planned Match, served through a cache the batches keep
// invalidating — and that the version's signatures, patched from its
// predecessor's and never rebuilt, equal a rebuild's.
func TestChurnEquivalence(t *testing.T) {
	steps := 40
	if testing.Short() {
		steps = 12
	}
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			alphabet := []string{"A", "B", "C"}

			b := graph.NewBuilder(nil)
			n := 8 + rng.Intn(16)
			for i := 0; i < n; i++ {
				b.AddNode(alphabet[rng.Intn(len(alphabet))])
			}
			for i := 0; i < 2*n; i++ {
				_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
			}
			s := NewStore(b.Build(), Config{Workers: 3})

			var standing []*StandingQuery
			alive := make([]int32, n)
			for i := range alive {
				alive[i] = int32(i)
			}
			removeAlive := func(v int32) {
				for i, x := range alive {
					if x == v {
						alive = append(alive[:i], alive[i+1:]...)
						return
					}
				}
			}

			for step := 0; step < steps; step++ {
				// Churn the query set: mostly register, sometimes drop.
				if rng.Intn(3) == 0 || len(standing) == 0 {
					sq, err := s.Register(randomPatternSrc(rng, alphabet))
					if err != nil {
						t.Fatalf("step %d: register: %v", step, err)
					}
					standing = append(standing, sq)
				} else if rng.Intn(6) == 0 {
					i := rng.Intn(len(standing))
					if !s.Unregister(standing[i].ID()) {
						t.Fatalf("step %d: unregister failed", step)
					}
					standing = append(standing[:i], standing[i+1:]...)
				}

				muts := randomBatch(rng, s.Current().Graph(), alive, alphabet)
				if len(muts) == 0 {
					continue
				}
				out, err := s.Apply(muts)
				if err != nil {
					t.Fatalf("step %d: apply %v: %v", step, muts, err)
				}
				for _, m := range muts {
					if m.Op == OpDeleteNode {
						removeAlive(m.Node)
					}
				}
				alive = append(alive, out.AddedNodes...)

				if out.Version != s.Current().ID() {
					t.Fatalf("step %d: result version %d, store %d", step, out.Version, s.Current().ID())
				}
				for _, sq := range standing {
					checkAgainstScratch(t, s, sq)
					planned, err := s.Engine().Match(context.Background(), sq.Pattern(), engine.QueryOptions{Planner: s.Planner()})
					if err != nil {
						t.Fatal(err)
					}
					got, _ := sq.Result()
					// A remapped cache hit serves an empty result as [], not null.
					if p, w := mustJSON(t, planned.Subgraphs), mustJSON(t, got.Subgraphs); string(p) != string(w) && planned.Len()+got.Len() > 0 {
						t.Fatalf("step %d: planned Match diverges:\n got: %s\nwant: %s", step, p, w)
					}
				}
				checkSignatures(t, s.Current().Graph())
			}
		})
	}
}

// TestVersionSignaturesEqualRebuilt: every version's graph carries the label
// rows, ranks and neighbour-label signatures a Builder derives from scratch,
// though each version patched its predecessor's, across all five ops — label
// rows that grow (add_node), set_label, edge toggles and delete_node of a hub
// wired to a fifth of the graph — over more than 64 labels, so that folded
// label bits collide and a stale bit would survive an OR.
func TestVersionSignaturesEqualRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alphabet := make([]string, 70)
	for i := range alphabet {
		alphabet[i] = fmt.Sprintf("L%d", i)
	}
	const n, hub = 600, 7
	b := graph.NewBuilder(nil)
	for i := 0; i < n; i++ {
		b.AddNode(alphabet[rng.Intn(len(alphabet))])
	}
	for i := 0; i < 2*n; i++ {
		_ = b.AddEdge(rng.Int31n(n), rng.Int31n(n))
	}
	for v := int32(0); v < n; v += 5 {
		_ = b.AddEdge(hub, v)
		_ = b.AddEdge(v+1, hub)
	}
	s := NewStore(b.Build(), Config{Workers: 2})
	checkSignatures(t, s.Current().Graph())

	var alive []int32
	for v := int32(0); v < n; v++ {
		if v != hub {
			alive = append(alive, v)
		}
	}
	for step := 0; step < 60; step++ {
		muts := []Mutation{{Op: OpDeleteNode, Node: hub}}
		if step != 30 {
			u, v := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
			edge := Mutation{Op: OpInsertEdge, U: u, V: v}
			if s.Current().Graph().HasEdge(u, v) {
				edge.Op = OpDeleteEdge
			}
			muts = []Mutation{edge,
				{Op: OpSetLabel, Node: alive[rng.Intn(len(alive))], Label: alphabet[rng.Intn(len(alphabet))]},
				{Op: OpAddNode, Label: alphabet[rng.Intn(len(alphabet))]}}
		}
		res, err := s.Apply(muts)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		alive = append(alive, res.AddedNodes...)
		checkSignatures(t, s.Current().Graph())
	}
}

// TestChurnConcurrentReaders exercises the readers-never-block-on-writers
// contract under the race detector: one writer applies batches — copying the
// pages, rows and signature rows it writes into, sharing the rest — while readers
// hammer planned one-shot matches of diameter 1 to 3 on whichever version
// they land on, standing results and version graphs. Every planned match
// must answer the unplanned bytes of its version, including on a version the
// shared plan cache has already moved past.
func TestChurnConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"A", "B", "C"}
	b := graph.NewBuilder(nil)
	const n = 60
	for i := 0; i < n; i++ {
		b.AddNode(alphabet[i%len(alphabet)])
	}
	for i := 0; i < 2*n; i++ {
		_ = b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	s := NewStore(b.Build(), Config{Workers: 2})
	sq, err := s.Register("node a A\nnode b B\nedge a b")
	if err != nil {
		t.Fatal(err)
	}

	readerPatterns := []string{
		"node a B\nnode b C\nedge a b",
		"node a A\nnode b B\nnode c C\nedge a b\nedge b c",
		"node a A\nnode b B\nnode c C\nnode d A\nedge a b\nedge b c\nedge c d",
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var behind atomic.Int64 // planned matches on a version the store had moved past
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				ver := s.Current()
				q, err := ver.Engine().Snapshot().ParsePattern(readerPatterns[(r+i)%len(readerPatterns)])
				if err != nil {
					t.Error(err)
					return
				}
				planned, err := ver.Engine().Match(context.Background(), q, engine.QueryOptions{Planner: s.Planner()})
				if err != nil {
					t.Error(err)
					return
				}
				if s.Current().ID() > ver.ID() {
					behind.Add(1)
				}
				want, err := ver.Engine().Match(context.Background(), q, engine.QueryOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				// A remapped cache hit serves an empty result as [], not null.
				if p, w := mustJSON(t, planned.Subgraphs), mustJSON(t, want.Subgraphs); string(p) != string(w) && planned.Len()+want.Len() > 0 {
					t.Errorf("reader at v%d (store at v%d): planned Match diverges:\n got: %s\nwant: %s", ver.ID(), s.Current().ID(), p, w)
					return
				}
				res, at := sq.Result()
				_ = res.Len()
				if at > s.Current().ID() {
					t.Error("standing query ahead of the store")
					return
				}
			}
		}(r)
	}

	alive := make([]int32, n)
	for i := range alive {
		alive[i] = int32(i)
	}
	for step := 0; step < 200; step++ {
		muts := randomBatch(rng, s.Current().Graph(), alive, alphabet)
		if len(muts) == 0 {
			continue
		}
		out, err := s.Apply(muts)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, m := range muts {
			if m.Op == OpDeleteNode {
				for i, x := range alive {
					if x == m.Node {
						alive = append(alive[:i], alive[i+1:]...)
						break
					}
				}
			}
		}
		alive = append(alive, out.AddedNodes...)
	}
	close(done)
	wg.Wait()
	t.Logf("%d planned matches ran on a version the store had already left", behind.Load())
	checkAgainstScratch(t, s, sq)
	checkSignatures(t, s.Current().Graph())
}

// TestApplyAllocatesWhatItTouches is the allocation guard of the update path:
// on a 50k-node store with two standing queries, a 4-edge batch allocates the
// pages, rows and signature rows it writes into and what maintenance reads —
// under 512 KB. One flat per-version copy of the row headers alone is 2.4 MB
// here.
func TestApplyAllocatesWhatItTouches(t *testing.T) {
	g := generator.Synthetic(50000, 1.2, 200, 1)
	s := NewStore(g, Config{})
	for seed, registered := int64(1), 0; registered < 2; seed++ {
		q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: seed})
		if dq, ok := graph.Diameter(q); !ok || dq != 2 {
			continue
		}
		if _, err := s.Register(graph.FormatString(q)); err != nil {
			t.Fatal(err)
		}
		registered++
	}

	rng := rand.New(rand.NewSource(1))
	n := int32(g.NumNodes())
	apply := func() {
		var batch []Mutation
		for len(batch) < 4 {
			if u, v := rng.Int31n(n), rng.Int31n(n); u != v && !s.Current().Graph().HasEdge(u, v) {
				batch = append(batch, Mutation{Op: OpInsertEdge, U: u, V: v})
			}
		}
		if _, err := s.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		apply() // pooled scratches and the store's BFS buffers reach their size
	}
	const batches = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		apply()
	}
	runtime.ReadMemStats(&after)
	perBatch := (after.TotalAlloc - before.TotalAlloc) / batches
	t.Logf("%d KB allocated per 4-edge batch", perBatch>>10)
	if perBatch >= 512<<10 {
		t.Fatalf("a 4-edge batch on %d nodes allocates %d KB, want < 512: something copies per version again", n, perBatch>>10)
	}
}

// BenchmarkApplyChurn is the update path in miniature: a 20k-node graph, four
// standing queries, and per iteration one 4-edge batch (inserts, then the
// batch that deletes them) followed by one planned Match+ on the new version.
// Nothing in an iteration may cost O(|V|) again: pages_copied/op is the
// header pages the batch wrote into (about 8 of the 80 the store has), and
// ns/op and B/op are what a per-version pass creeping back would move.
func BenchmarkApplyChurn(b *testing.B) {
	g := generator.Synthetic(20000, 1.2, 200, 1)
	s := NewStore(g, Config{})
	var pats []*graph.Graph
	for seed := int64(1); len(pats) < 5; seed++ {
		q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3 + len(pats)%3, Alpha: 1.2, Seed: seed})
		if dq, ok := graph.Diameter(q); ok && dq >= 2 && dq <= 3 {
			pats = append(pats, q)
		}
	}
	for _, q := range pats[:4] {
		if _, err := s.Register(graph.FormatString(q)); err != nil {
			b.Fatal(err)
		}
	}
	opts := engine.PlusQuery()
	opts.Planner = s.Planner()
	match := func() {
		if _, err := s.Engine().Match(context.Background(), pats[4], opts); err != nil {
			b.Fatal(err)
		}
	}
	match()

	rng := rand.New(rand.NewSource(1))
	n := int32(g.NumNodes())
	var batch []Mutation
	var pages int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			batch = batch[:0]
			for len(batch) < 4 {
				if u, v := rng.Int31n(n), rng.Int31n(n); u != v && !s.Current().Graph().HasEdge(u, v) {
					batch = append(batch, Mutation{Op: OpInsertEdge, U: u, V: v})
				}
			}
		} else {
			for k := range batch {
				batch[k].Op = OpDeleteEdge
			}
		}
		res, err := s.Apply(batch)
		if err != nil {
			b.Fatal(err)
		}
		pages += res.PagesCopied
		match()
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages_copied/op")
}
