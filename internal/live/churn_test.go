package live

import (
	"context"
	"fmt"
	"math/rand"
	"os"
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

// randomPatternSrc builds a random connected pattern of the given diameter
// over the label alphabet, in the text format Register accepts: a path of
// radius+1 nodes, edges randomly directed, and from radius 2 up to two more
// leaves hung on inner path nodes, which leave the diameter as it is.
func randomPatternSrc(rng *rand.Rand, alphabet []string, radius int) string {
	n := radius + 1
	if radius >= 2 {
		n += rng.Intn(3)
	}
	src := ""
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("node p%d %s\n", i, alphabet[rng.Intn(len(alphabet))])
	}
	for i := 1; i < n; i++ {
		p := i - 1 // the path
		if i > radius {
			p = 1 + rng.Intn(radius-1) // a leaf on an inner path node
		}
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
		case 2: // relabel a random alive node
			if rng.Intn(2) == 0 {
				muts = append(muts, Mutation{Op: OpSetLabel, Node: alive[rng.Intn(len(alive))], Label: alphabet[rng.Intn(len(alphabet))]})
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
// batch (double toggles of one edge, edges touching or relabels of a node
// the batch deletes, double deletes), since Apply is all-or-nothing.
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
		case OpSetLabel:
			if deleted[m.Node] {
				continue
			}
			out = append(out, m)
		default:
			out = append(out, m)
		}
	}
	return out
}

// TestChurnEquivalence is the acceptance soak test: register standing
// queries of every radius 0-4, so that one batch's dirty sweep serves five
// radius groups, then interleave random update batches — edge toggles, added,
// deleted and relabelled nodes — with further registrations and
// unregistrations, and after every batch assert each standing result set is
// byte-identical to engine.Match re-run from scratch on the post-update graph
// at the same version — as is a planned Match, served through a cache the
// batches keep invalidating — and that the version's signatures, patched
// from its predecessor's and never rebuilt, equal a rebuild's. Seeds 0-2 draw
// graph and patterns from 3 labels, so nearly every mutated node carries a
// standing label; seeds 3-5 draw the graph from 12 labels and the patterns
// from 3 of them, so most do not and the dirty sweep takes them one hop less.
func TestChurnEquivalence(t *testing.T) {
	steps := 40
	if testing.Short() {
		steps = 12
	}
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			labels := 3
			if seed >= 3 {
				labels = 12
			}
			churnSoak(t, seed, labels, steps)
		})
	}
}

// TestChurnSoakAlphabets is the churn soak over alphabets of 3 to 12 labels,
// every pattern drawn from the first 3 of them, so batches mix mutated nodes
// that carry a standing label with ones that do not in every proportion.
func TestChurnSoakAlphabets(t *testing.T) {
	seeds, steps := 60, 60
	if testing.Short() {
		seeds, steps = 20, 30
	}
	checks := 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		checks += churnSoak(t, 1000+seed, 3+int(seed%10), steps)
	}
	t.Logf("%d standing results held to a scratch Match", checks)
}

// churnSoak runs one seed of the churn soak over a random graph of the given
// number of labels, patterns drawn from the first three, and returns how many
// standing results it held to a scratch Match.
func churnSoak(t *testing.T, seed int64, labels, steps int) (checks int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	alphabet := make([]string, labels)
	for i := range alphabet {
		alphabet[i] = string(rune('A' + i))
	}
	patternAlphabet := alphabet[:3]

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

	for radius := 0; radius <= 4; radius++ {
		sq, err := s.Register(randomPatternSrc(rng, patternAlphabet, radius))
		if err != nil {
			t.Fatalf("seed %d: register radius %d: %v", seed, radius, err)
		}
		if sq.Radius() != radius {
			t.Fatalf("seed %d: pattern built for radius %d has radius %d:\n%s", seed, radius, sq.Radius(), sq.Source())
		}
		standing = append(standing, sq)
	}
	for step := 0; step < steps; step++ {
		// Churn the query set: mostly register, sometimes drop.
		if rng.Intn(3) == 0 || len(standing) == 0 {
			sq, err := s.Register(randomPatternSrc(rng, patternAlphabet, rng.Intn(5)))
			if err != nil {
				t.Fatalf("seed %d step %d: register: %v", seed, step, err)
			}
			standing = append(standing, sq)
		} else if rng.Intn(6) == 0 {
			i := rng.Intn(len(standing))
			if !s.Unregister(standing[i].ID()) {
				t.Fatalf("seed %d step %d: unregister failed", seed, step)
			}
			standing = append(standing[:i], standing[i+1:]...)
		}

		muts := randomBatch(rng, s.Current().Graph(), alive, alphabet)
		if len(muts) == 0 {
			continue
		}
		out, err := s.Apply(muts)
		if err != nil {
			t.Fatalf("seed %d step %d: apply %v: %v", seed, step, muts, err)
		}
		for _, m := range muts {
			if m.Op == OpDeleteNode {
				removeAlive(m.Node)
			}
		}
		alive = append(alive, out.AddedNodes...)

		if out.Version != s.Current().ID() {
			t.Fatalf("seed %d step %d: result version %d, store %d", seed, step, out.Version, s.Current().ID())
		}
		for _, sq := range standing {
			checkAgainstScratch(t, s, sq)
			checks++
			planned, err := s.Engine().Match(context.Background(), sq.Pattern(), engine.QueryOptions{Planner: s.Planner()})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := sq.Result()
			// A remapped cache hit serves an empty result as [], not null.
			if p, w := mustJSON(t, planned.Subgraphs), mustJSON(t, got.Subgraphs); string(p) != string(w) && planned.Len()+got.Len() > 0 {
				t.Fatalf("seed %d step %d: planned Match diverges:\n got: %s\nwant: %s", seed, step, p, w)
			}
		}
		checkSignatures(t, s.Current().Graph())
	}
	return checks
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
// adjacency pages it rebuilds (≈20 KB each, at most 8), the rows and signature
// rows it writes into and what maintenance reads — under 512 KB. One flat
// per-version copy of the adjacency alone is ≈3.9 MB here.
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

// BenchmarkApplyChurn is the update path in miniature, in two cells, and a
// third at a million nodes when STRONGSIM_1M is set.
//
// 20k: a 20k-node graph, four standing queries, and per iteration one 4-edge
// batch (inserts, then the batch that deletes them) followed by one planned
// Match+ on the new version. Nothing in an iteration may cost O(|V|) again:
// pages_copied/op is the adjacency pages the batch rebuilt (about 8 of the 80
// the store has, ≈17 KB each), and ns/op and B/op are what a per-version pass
// creeping back would move.
//
// 100k: the update path alone at the benchmark harness's repeat-churn shape —
// 100k nodes, four standing queries of 3, 4 and 5 nodes sampled as the
// harness samples them (connected, dQ ≤ 3), alternating insert and delete
// 4-edge batches, no match (churnStore). dirty/op is the centers the sweep
// reached to the largest standing radius, labelled/op the centers handed to
// the queries, summed over them. 1M is the same at n = 1 000 000 (the graph
// takes seconds to build).
func BenchmarkApplyChurn(b *testing.B) {
	b.Run("20k", benchmarkApplyChurn20k)
	b.Run("100k", func(b *testing.B) { benchmarkApplyChurnAt(b, 100000) })
	if os.Getenv("STRONGSIM_1M") != "" {
		b.Run("1M", func(b *testing.B) { benchmarkApplyChurnAt(b, 1000000) })
	}
}

func benchmarkApplyChurnAt(b *testing.B, n int) {
	s, rng := churnStore(b, n)
	var last, dirty, labelled int
	s.dispatched = countDispatched(&last, &labelled)
	var batch []Mutation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch = nextChurnBatch(rng, s, batch, i)
		if _, err := s.Apply(batch); err != nil {
			b.Fatal(err)
		}
		dirty += last
	}
	b.ReportMetric(float64(dirty)/float64(b.N), "dirty/op")
	b.ReportMetric(float64(labelled)/float64(b.N), "labelled/op")
}

// churnStore is repeat-churn's update path on an n-node graph of the
// harness's shape: a store with four standing queries of 3, 4 and 5 nodes
// sampled as the harness samples them (connected, dQ ≤ 3), and the random
// source nextChurnBatch then draws its batches from.
func churnStore(tb testing.TB, n int) (*Store, *rand.Rand) {
	g := generator.Synthetic(n, 1.2, 200, 1)
	s := NewStore(g, Config{})
	rng := rand.New(rand.NewSource(1))
	for registered := 0; registered < 4; {
		nodes := 3 + registered%3
		q := generator.SamplePattern(g, generator.PatternOptions{Nodes: nodes, Alpha: 1.2, Seed: rng.Int63()})
		if dq, ok := graph.Diameter(q); !ok || dq > 3 || q.NumNodes() != nodes {
			continue
		}
		if _, err := s.Register(graph.FormatString(q)); err != nil {
			tb.Fatal(err)
		}
		registered++
	}
	return s, rng
}

// countDispatched is a Store.dispatched hook that sets *last to the dirty
// centers of the group it sees — the last group's are the largest radius's —
// and adds the centers handed to the group's queries to *labelled.
func countDispatched(last, labelled *int) func(int, *graph.NodeSet, []*StandingQuery) {
	return func(_ int, d *graph.NodeSet, group []*StandingQuery) {
		*last = d.Len()
		for _, sq := range group {
			*labelled += len(sq.eval)
		}
	}
}

// TestApplyChurnCounts pins the update path's counted work at repeat-churn's
// shape, the figures BenchmarkApplyChurn/100k reports as dirty/op and
// labelled/op: over the first 4 000 batches of its churn, the dirty centers
// the sweep reached to the largest standing radius and the centers handed to
// the standing queries, summed. Seeds that carry no standing label are swept
// one hop less than the others (dirtySweep); sweeping every seed to the full
// radius reads ≈8× the dirty centers.
func TestApplyChurnCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-node graph")
	}
	s, rng := churnStore(t, 100000)
	var last, dirty, labelled int
	s.dispatched = countDispatched(&last, &labelled)
	var batch []Mutation
	const batches = 4000
	for i := 0; i < batches; i++ {
		batch = nextChurnBatch(rng, s, batch, i)
		if _, err := s.Apply(batch); err != nil {
			t.Fatal(err)
		}
		dirty += last
	}
	t.Logf("over %d batches: dirty/op %.1f, labelled/op %.2f", batches, float64(dirty)/batches, float64(labelled)/batches)
	if dirty != wantChurnDirty || labelled != wantChurnLabelled {
		t.Fatalf("over %d batches: %d dirty and %d labelled centers, want %d and %d", batches, dirty, labelled, wantChurnDirty, wantChurnLabelled)
	}
}

const wantChurnDirty, wantChurnLabelled = 1647494, 122540

func benchmarkApplyChurn20k(b *testing.B) {
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
	var batch []Mutation
	var pages int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch = nextChurnBatch(rng, s, batch, i)
		res, err := s.Apply(batch)
		if err != nil {
			b.Fatal(err)
		}
		pages += res.PagesCopied
		match()
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages_copied/op")
}

// nextChurnBatch returns the i-th batch of an alternating churn, reusing
// batch: four fresh edges inserted at even i, the same four deleted at odd i.
func nextChurnBatch(rng *rand.Rand, s *Store, batch []Mutation, i int) []Mutation {
	if i%2 == 1 {
		for k := range batch {
			batch[k].Op = OpDeleteEdge
		}
		return batch
	}
	g := s.Current().Graph()
	n := int32(g.NumNodes())
	batch = batch[:0]
	for len(batch) < 4 {
		if u, v := rng.Int31n(n), rng.Int31n(n); u != v && !g.HasEdge(u, v) {
			batch = append(batch, Mutation{Op: OpInsertEdge, U: u, V: v})
		}
	}
	return batch
}
