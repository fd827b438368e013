package live

import (
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/plan"
)

// mustJSON renders a subgraph list canonically for byte-identity checks.
func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkAgainstScratch asserts a standing query's result set is byte-
// identical to engine.Match re-run from scratch on the store's current
// version, and that the query is maintained at exactly that version.
func checkAgainstScratch(t testing.TB, s *Store, sq *StandingQuery) {
	t.Helper()
	ver := s.Current()
	got, at := sq.Result()
	if at != ver.ID() {
		t.Fatalf("standing query at version %d, store at %d", at, ver.ID())
	}
	want, err := ver.Engine().Match(context.Background(), sq.Pattern(), engine.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, wantJSON := mustJSON(t, got.Subgraphs), mustJSON(t, want.Subgraphs)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("standing result diverges from scratch Match at v%d:\n got: %s\nwant: %s", at, gotJSON, wantJSON)
	}
}

func edgePattern(t testing.TB, s *Store) *StandingQuery {
	t.Helper()
	sq, err := s.Register("node a A\nnode b B\nedge a b")
	if err != nil {
		t.Fatal(err)
	}
	return sq
}

// chain builds A -> B -> C ... cycling over the given labels.
func chain(labels []string, n int) *graph.Graph {
	b := graph.NewBuilder(nil)
	for i := 0; i < n; i++ {
		b.AddNode(labels[i%len(labels)])
	}
	for i := 0; i+1 < n; i++ {
		_ = b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func TestStoreLifecycle(t *testing.T) {
	g := chain([]string{"A", "B", "C"}, 6) // A->B->C->A->B->C
	s := NewStore(g, Config{Workers: 2})
	if s.Current().ID() != 0 {
		t.Fatalf("initial version = %d", s.Current().ID())
	}
	sq := edgePattern(t, s)
	res, _ := sq.Result()
	if res.Len() != 2 {
		t.Fatalf("A->B occurs twice in the chain, got %d", res.Len())
	}
	checkAgainstScratch(t, s, sq)

	// Delete one A->B edge: one match disappears.
	out, err := s.Apply([]Mutation{{Op: OpDeleteEdge, U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != 1 || s.Current().ID() != 1 {
		t.Fatalf("version = %d / %d, want 1", out.Version, s.Current().ID())
	}
	res, _ = sq.Result()
	if res.Len() != 1 {
		t.Fatalf("after delete: %d matches, want 1", res.Len())
	}
	checkAgainstScratch(t, s, sq)
	added, removed, from, to := sq.Delta()
	if from != 0 || to != 1 || len(added) != 0 || len(removed) != 1 {
		t.Fatalf("delta = +%d -%d (%d->%d), want +0 -1 (0->1)", len(added), len(removed), from, to)
	}

	// Add a fresh A node wired to an existing B: a new match appears.
	out, err = s.Apply([]Mutation{
		{Op: OpAddNode, Label: "A"},
		{Op: OpInsertEdge, U: 6, V: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.AddedNodes) != 1 || out.AddedNodes[0] != 6 {
		t.Fatalf("added nodes = %v, want [6]", out.AddedNodes)
	}
	res, _ = sq.Result()
	if res.Len() != 2 {
		t.Fatalf("after re-wire: %d matches, want 2", res.Len())
	}
	checkAgainstScratch(t, s, sq)

	// Old versions stay queryable: version 0's graph still has 6 nodes.
	if n := s.Current().Graph().NumNodes(); n != 7 {
		t.Fatalf("current graph has %d nodes, want 7", n)
	}
}

// versionImage is everything a reader of one version can see of its graph,
// signatures included, copied out when the version was current.
type versionImage struct {
	ver     *Version
	labels  []int32
	out, in [][]int32
	sigs    [][]graph.Sig // per label id
}

func imageOf(ver *Version) versionImage {
	g := ver.Graph()
	im := versionImage{ver: ver}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		im.labels = append(im.labels, g.Label(v))
		im.out = append(im.out, slices.Clone(g.Out(v)))
		im.in = append(im.in, slices.Clone(g.In(v)))
	}
	for lbl := int32(0); lbl < int32(g.Labels().Len()); lbl++ {
		im.sigs = append(im.sigs, slices.Clone(g.SigsWithLabel(lbl)))
	}
	return im
}

func (im versionImage) check(t *testing.T, when string) {
	t.Helper()
	g := im.ver.Graph()
	if g.NumNodes() != len(im.labels) {
		t.Fatalf("%s: version %d has %d nodes, had %d", when, im.ver.ID(), g.NumNodes(), len(im.labels))
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if g.Label(v) != im.labels[v] || !slices.Equal(g.Out(v), im.out[v]) || !slices.Equal(g.In(v), im.in[v]) {
			t.Fatalf("%s: node %d of version %d changed: label %d out %v in %v, was %d %v %v",
				when, v, im.ver.ID(), g.Label(v), g.Out(v), g.In(v), im.labels[v], im.out[v], im.in[v])
		}
	}
	for lbl, sigs := range im.sigs {
		if !slices.Equal(g.SigsWithLabel(int32(lbl)), sigs) {
			t.Fatalf("%s: the signatures of label %d in version %d changed", when, lbl, im.ver.ID())
		}
	}
}

// TestStoreVersionsAreImmutable: versions share adjacency pages, signature
// rows and label tables, and none of it may move under a reader.
// 1 020 nodes (two pages); batches add nodes across the boundary into a third
// page, delete a hub whose neighbours span all pages, fail midway after
// writing into several pages, and relabel — after each, every earlier
// version's rows, labels and signatures read exactly what they read when it
// was current, and version 0 still answers queries.
func TestStoreVersionsAreImmutable(t *testing.T) {
	const n, hub = 1020, 5
	labels := []string{"A", "B", "C"}
	b := graph.NewBuilder(nil)
	for i := 0; i < n; i++ {
		b.AddNode(labels[i%len(labels)])
	}
	for i := int32(0); i+1 < n; i++ {
		_ = b.AddEdge(i, i+1)
	}
	for i := int32(0); i < n; i += 37 {
		_ = b.AddEdge(hub, i)
		_ = b.AddEdge(n-1-i, hub)
	}
	s := NewStore(b.Build(), Config{Workers: 2})
	sq := edgePattern(t, s)
	first, _ := sq.Result()
	registered := first.Len()

	images := []versionImage{imageOf(s.Current())}
	// maxPages bounds what the batch may copy, of the 3 adjacency pages in
	// each direction; 0 expects the batch to fail.
	step := func(name string, muts []Mutation, maxPages int) {
		t.Helper()
		wantErr := maxPages == 0
		before := s.Current()
		res, err := s.Apply(muts)
		if (err != nil) != wantErr {
			t.Fatalf("%s: err = %v", name, err)
		}
		if wantErr {
			if s.Current() != before {
				t.Fatalf("%s: a failed batch published version %d", name, s.Current().ID())
			}
		} else {
			if res.PagesCopied == 0 || res.PagesCopied > maxPages {
				t.Fatalf("%s: %d pages copied, want 1 to %d: a batch copies the pages it writes into", name, res.PagesCopied, maxPages)
			}
			images = append(images, imageOf(s.Current()))
		}
		for _, im := range images {
			im.check(t, "after "+name)
		}
		checkAgainstScratch(t, s, sq)
	}

	// Nodes 1020..1026: 1024 opens the third page; wired into pages 0 and 1.
	var grow []Mutation
	for i := int32(0); i < 7; i++ {
		grow = append(grow, Mutation{Op: OpAddNode, Label: labels[i%3]})
	}
	grow = append(grow,
		Mutation{Op: OpInsertEdge, U: 3, V: 1023},
		Mutation{Op: OpInsertEdge, U: 1025, V: 600},
		Mutation{Op: OpInsertEdge, U: 1026, V: hub},
		Mutation{Op: OpInsertEdge, U: hub, V: 1024})
	// Pages 0 and 1 of each array are written; page 2 is new, not copied.
	step("grow across a page boundary", grow, 4)
	step("delete the hub", []Mutation{{Op: OpDeleteNode, Node: hub}}, 6)
	step("fail midway", []Mutation{
		{Op: OpInsertEdge, U: 10, V: 700},
		{Op: OpAddNode, Label: "A"},
		{Op: OpInsertEdge, U: 1027, V: 1025},
		{Op: OpDeleteNode, Node: 511},
		{Op: OpDeleteEdge, U: 0, V: 999}, // no such edge
	}, 0)
	step("relabel and rewire", []Mutation{
		{Op: OpSetLabel, Node: 512, Label: "A"},
		{Op: OpDeleteEdge, U: 511, V: 512},
		{Op: OpInsertEdge, U: 10, V: 700},
		{Op: OpAddNode, Label: "B"},
	}, 4)
	if got := s.Current().Graph().NumNodes(); got != n+8 {
		t.Fatalf("current graph has %d nodes, want %d (the failed batch's node must not exist)", got, n+8)
	}

	// Version 0 still answers queries, with the answer it had.
	v0 := images[0].ver
	res, err := v0.Engine().Match(context.Background(), sq.Pattern(), engine.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != registered {
		t.Fatalf("version 0 finds %d matches, found %d when it was current", res.Len(), registered)
	}
}

// TestStandingSkipsUnanchored: a dirty center that carries a pattern label
// but cannot anchor the pattern gets no ball, and the maintained result still
// equals a scratch Match.
func TestStandingSkipsUnanchored(t *testing.T) {
	// 0:A -> 1:B -> 2:C and, apart, 3:A -> 4:C. Pattern A -> B -> C.
	b := graph.NewBuilder(nil)
	for _, l := range []string{"A", "B", "C", "A", "C", "B"} {
		b.AddNode(l)
	}
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 2)
	_ = b.AddEdge(3, 4)
	s := NewStore(b.Build(), Config{Workers: 2})
	sq, err := s.Register("node a A\nnode b B\nnode c C\nedge a b\nedge b c")
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := sq.Result(); res.Len() != 1 {
		t.Fatalf("registered with %d matches, want 1", res.Len())
	}
	unanchored := liveUnanchored.Value()

	// 3:A gains a B successor with no C behind it: 3, 4 and 5 are dirty and
	// carry pattern labels, and none of them can anchor — 3 has a B but that B
	// has no C, 5 has no C successor, 4 has no B predecessor.
	out, err := s.Apply([]Mutation{{Op: OpInsertEdge, U: 3, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if n := out.Recomputed[sq.ID()]; n != 0 {
		t.Fatalf("%d balls built for centers that cannot anchor the pattern, want 0", n)
	}
	if d := liveUnanchored.Value() - unanchored; d != 3 {
		t.Fatalf("live_standing_unanchored_total moved by %d, want 3", d)
	}
	checkAgainstScratch(t, s, sq)

	// Completing the path behind 5 makes 3, 4... anchor: balls are built and
	// the new match appears.
	out, err = s.Apply([]Mutation{{Op: OpInsertEdge, U: 5, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if n := out.Recomputed[sq.ID()]; n != 3 {
		t.Fatalf("%d balls built once 3 -> 5 -> 4 is a match, want its three nodes", n)
	}
	if res, _ := sq.Result(); res.Len() != 2 {
		t.Fatalf("%d matches, want 2", res.Len())
	}
	checkAgainstScratch(t, s, sq)
}

// TestStandingSkipsFilteredCenters: a dirty center that passes the anchor
// check but lies outside the global dual-simulation relation gets no ball
// either, and counts as unanchored, so labelled = balls + unanchored still
// holds; the maintained result still equals a scratch Match.
func TestStandingSkipsFilteredCenters(t *testing.T) {
	// Pattern a <-> b (radius 1). 3:B -> 0:A -> 1:B and 2:A apart, beside
	// the match 4:A <-> 5:B.
	b := graph.NewBuilder(nil)
	for _, l := range []string{"A", "B", "A", "B", "A", "B"} {
		b.AddNode(l)
	}
	_ = b.AddEdge(3, 0)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(4, 5)
	_ = b.AddEdge(5, 4)
	s := NewStore(b.Build(), Config{Workers: 2})
	sq, err := s.Register("node a A\nnode b B\nedge a b\nedge b a")
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := sq.Result(); res.Len() != 1 {
		t.Fatalf("registered with %d matches, want 1", res.Len())
	}
	unanchored := liveUnanchored.Value()

	// 1:B gains an A successor: 0, 1 and 2 are dirty and carry pattern
	// labels. One round deep, 0 and 1 anchor the pattern (0 has a B on
	// either side, 1 an A), but the path 3 -> 0 -> 1 -> 2 starts and ends
	// unsupported, so dual simulation drops all of it.
	out, err := s.Apply([]Mutation{{Op: OpInsertEdge, U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Anchored(s.Current().Engine().Snapshot().Graph(), sq.Pattern(), 1, []int32{0, 1, 2}); !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("anchored centers %v, want [0 1]: the test no longer reaches the filter", got)
	}
	if n := out.Recomputed[sq.ID()]; n != 0 {
		t.Fatalf("%d balls built for centers outside the global relation, want 0", n)
	}
	if d := liveUnanchored.Value() - unanchored; d != 3 {
		t.Fatalf("live_standing_unanchored_total moved by %d, want 3", d)
	}
	checkAgainstScratch(t, s, sq)
}

// TestStandingDropsCentersLeavingThePattern: a matched center that a batch
// relabels out of the pattern, or deletes, is not handed to the query — it
// carries no pattern label any more — and still loses its outcome, because
// it is dirty; the standing result keeps equal to a scratch Match.
func TestStandingDropsCentersLeavingThePattern(t *testing.T) {
	s := NewStore(chain([]string{"A", "B", "C"}, 9), Config{Workers: 2}) // A->B->C->A->...
	sq := edgePattern(t, s)                                              // A->B: centers 0 1 3 4 6 7
	var handed []int32
	s.dispatched = func(_ int, _ *graph.NodeSet, group []*StandingQuery) {
		handed = slices.Clone(group[0].eval)
	}
	hasCenter := func(c int32) bool {
		return slices.ContainsFunc(sq.matched, func(ps *core.PerfectSubgraph) bool { return ps.Center == c })
	}
	for _, step := range []struct {
		name   string
		mut    Mutation
		center int32
	}{
		{"relabelled", Mutation{Op: OpSetLabel, Node: 0, Label: "C"}, 0},
		{"deleted", Mutation{Op: OpDeleteNode, Node: 3}, 3},
	} {
		if !hasCenter(step.center) {
			t.Fatalf("%s: center %d holds no outcome before the batch", step.name, step.center)
		}
		if _, err := s.Apply([]Mutation{step.mut}); err != nil {
			t.Fatal(err)
		}
		if slices.Contains(handed, step.center) {
			t.Fatalf("%s: center %d handed to the query (%v), though it carries no pattern label", step.name, step.center, handed)
		}
		if hasCenter(step.center) {
			t.Fatalf("%s: center %d kept its outcome", step.name, step.center)
		}
		checkAgainstScratch(t, s, sq)
	}
	if res, _ := sq.Result(); res.Len() != 1 {
		t.Fatalf("%d matches left, want 1 (6 -> 7)", res.Len())
	}
}

func TestStoreBatchAtomicity(t *testing.T) {
	g := chain([]string{"A", "B"}, 4)
	s := NewStore(g, Config{})
	sq := edgePattern(t, s)
	before, _ := sq.Result()
	beforeJSON := mustJSON(t, before.Subgraphs)

	// The batch's first mutations are valid; the last is not. Nothing may
	// be applied.
	_, err := s.Apply([]Mutation{
		{Op: OpDeleteEdge, U: 0, V: 1},
		{Op: OpAddNode, Label: "C"},
		{Op: OpInsertEdge, U: 99, V: 0},
	})
	if err == nil {
		t.Fatal("invalid batch should be rejected")
	}
	if s.Current().ID() != 0 {
		t.Fatalf("failed batch bumped version to %d", s.Current().ID())
	}
	if s.Current().Graph().NumNodes() != 4 || !s.Current().Graph().HasEdge(0, 1) {
		t.Fatal("failed batch mutated the graph")
	}
	after, _ := sq.Result()
	if got := mustJSON(t, after.Subgraphs); string(got) != string(beforeJSON) {
		t.Fatal("failed batch changed a standing result")
	}
	checkAgainstScratch(t, s, sq)
}

func TestStoreRejectsBadMutations(t *testing.T) {
	g := chain([]string{"A", "B"}, 4)
	s := NewStore(g, Config{})
	cases := []struct {
		name string
		muts []Mutation
	}{
		{"empty batch", nil},
		{"unknown op", []Mutation{{Op: "rename"}}},
		{"unlabeled node", []Mutation{{Op: OpAddNode}}},
		{"reserved label", []Mutation{{Op: OpAddNode, Label: TombstoneLabel}}},
		{"insert out of range", []Mutation{{Op: OpInsertEdge, U: 0, V: 9}}},
		{"insert negative", []Mutation{{Op: OpInsertEdge, U: -1, V: 0}}},
		{"delete absent edge", []Mutation{{Op: OpDeleteEdge, U: 1, V: 0}}},
		{"delete out of range", []Mutation{{Op: OpDeleteEdge, U: 0, V: 9}}},
		{"delete unknown node", []Mutation{{Op: OpDeleteNode, Node: 9}}},
		{"double node delete", []Mutation{{Op: OpDeleteNode, Node: 0}, {Op: OpDeleteNode, Node: 0}}},
		{"edge to deleted node", []Mutation{{Op: OpDeleteNode, Node: 0}, {Op: OpInsertEdge, U: 1, V: 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.Apply(tc.muts); err == nil {
				t.Fatalf("batch %v should be rejected", tc.muts)
			}
			if s.Current().ID() != 0 {
				t.Fatalf("rejected batch published version %d", s.Current().ID())
			}
		})
	}
}

func TestStoreDeleteNode(t *testing.T) {
	// B1 <- A0 -> B2, plus a self-loop on A0.
	b := graph.NewBuilder(nil)
	a := b.AddNode("A")
	b1 := b.AddNode("B")
	b2 := b.AddNode("B")
	_ = b.AddEdge(a, b1)
	_ = b.AddEdge(a, b2)
	_ = b.AddEdge(b1, a)
	_ = b.AddEdge(a, a)
	s := NewStore(b.Build(), Config{})
	sq := edgePattern(t, s)
	// Three balls, three distinct perfect subgraphs: {A0,B1,B2} from the
	// center-A0 ball, {A0,B1} and {A0,B2} from the B-centered balls.
	if res, _ := sq.Result(); res.Len() != 3 {
		t.Fatalf("want 3 matches before deletion, got %d", res.Len())
	}

	out, err := s.Apply([]Mutation{{Op: OpDeleteNode, Node: int32(a)}})
	if err != nil {
		t.Fatal(err)
	}
	g := s.Current().Graph()
	if g.NumEdges() != 0 {
		t.Fatalf("deleting the hub should drop all %d edges, %d remain", 4, g.NumEdges())
	}
	if g.NumNodes() != 3 {
		t.Fatalf("node ids are stable; got %d nodes", g.NumNodes())
	}
	if res, _ := sq.Result(); res.Len() != 0 {
		t.Fatal("deleted hub should clear every match")
	}
	checkAgainstScratch(t, s, sq)
	if out.Nodes != 3 || out.Edges != 0 {
		t.Fatalf("update result reports %d nodes / %d edges", out.Nodes, out.Edges)
	}

	// A tombstoned node never matches again, even by label.
	if got := g.NodesWithLabelName("A"); len(got) != 0 {
		t.Fatalf("label index still lists deleted node: %v", got)
	}
}

func TestStoreRegisterUnknownLabelThenAppears(t *testing.T) {
	// Register a pattern whose label the store has never seen, then add
	// matching nodes: the standing query must pick them up (id-collision
	// regression test for master-table interning).
	g := chain([]string{"A"}, 2)
	s := NewStore(g, Config{})
	sq, err := s.Register("node x X\nnode y Y\nedge x y")
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := sq.Result(); res.Len() != 0 {
		t.Fatal("no X/Y nodes yet")
	}
	// A different novel label first, so identifiers would collide if
	// registration had used a private clone.
	if _, err := s.Apply([]Mutation{{Op: OpAddNode, Label: "Q"}}); err != nil {
		t.Fatal(err)
	}
	out, err := s.Apply([]Mutation{
		{Op: OpAddNode, Label: "X"},
		{Op: OpAddNode, Label: "Y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Mutation{{Op: OpInsertEdge, U: out.AddedNodes[0], V: out.AddedNodes[1]}}); err != nil {
		t.Fatal(err)
	}
	if res, _ := sq.Result(); res.Len() != 1 {
		t.Fatalf("X->Y should now match once, got %d", res.Len())
	}
	checkAgainstScratch(t, s, sq)
	// And a pattern with label Q registered now sees the Q node.
	sq2, err := s.Register("node q Q")
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := sq2.Result(); res.Len() != 1 {
		t.Fatalf("single-node Q pattern should match the Q node, got %d", res.Len())
	}
}

// TestStoreLabelsInternedOutsideABatch pins the publish rule for the label
// table: a label the master table gained since the current version was
// published — by a registration, or by an add_node in a rejected batch —
// reaches the next version's table, even when that version's batch is
// edge-only and interns nothing itself.
func TestStoreLabelsInternedOutsideABatch(t *testing.T) {
	s := NewStore(chain([]string{"A", "B"}, 3), Config{})
	if _, err := s.Register("node z Z"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Mutation{{Op: OpInsertEdge, U: 2, V: 0}}); err != nil {
		t.Fatal(err)
	}
	if s.Current().Graph().Labels().ID("Z") == graph.NoLabel {
		t.Fatal("label Z, interned by Register, is missing from the next version's table")
	}
	if _, err := s.Apply([]Mutation{
		{Op: OpAddNode, Label: "W"},
		{Op: OpDeleteEdge, U: 0, V: 2}, // no such edge: the batch is rejected
	}); err == nil {
		t.Fatal("deleting a missing edge should reject the batch")
	}
	if _, err := s.Apply([]Mutation{{Op: OpDeleteEdge, U: 2, V: 0}}); err != nil {
		t.Fatal(err)
	}
	labels := s.Current().Graph().Labels()
	if labels.ID("W") == graph.NoLabel {
		t.Fatal("label W, interned by a rejected batch, is missing from the next version's table")
	}
	if labels.ID("W") != s.labels.ID("W") || labels.Len() != s.labels.Len() {
		t.Fatalf("version table has %d labels (W=%d), master %d (W=%d)",
			labels.Len(), labels.ID("W"), s.labels.Len(), s.labels.ID("W"))
	}
}

// TestStoreLabelTableSharedUntilItGrows pins the other half of the rule: a
// batch that interns nothing publishes its predecessor's label table itself,
// not a copy, from version 0 (the caller's table) on.
func TestStoreLabelTableSharedUntilItGrows(t *testing.T) {
	g := chain([]string{"A", "B"}, 3)
	s := NewStore(g, Config{})
	if _, err := s.Apply([]Mutation{{Op: OpInsertEdge, U: 2, V: 0}, {Op: OpAddNode, Label: "B"}}); err != nil {
		t.Fatal(err)
	}
	if s.Current().Graph().Labels() != g.Labels() {
		t.Fatal("a batch that interns nothing should publish version 0's label table")
	}
	if _, err := s.Apply([]Mutation{{Op: OpAddNode, Label: "C"}}); err != nil {
		t.Fatal(err)
	}
	grown := s.Current().Graph().Labels()
	if grown == g.Labels() || grown.ID("C") == graph.NoLabel {
		t.Fatal("a batch that interns C should publish a new table holding it")
	}
	if _, err := s.Apply([]Mutation{{Op: OpSetLabel, Node: 3, Label: "C"}, {Op: OpDeleteNode, Node: 1}}); err != nil {
		t.Fatal(err)
	}
	if s.Current().Graph().Labels() == grown {
		t.Fatal("the first delete_node interns the tombstone label, so the table must grow")
	}
	tomb := s.Current().Graph().Labels()
	if _, err := s.Apply([]Mutation{{Op: OpDeleteNode, Node: 0}, {Op: OpSetLabel, Node: 2, Label: "A"}}); err != nil {
		t.Fatal(err)
	}
	if s.Current().Graph().Labels() != tomb {
		t.Fatal("a batch of known labels should publish its predecessor's label table")
	}
}

// TestTombstoneLabelUnreachable pins the deletion model: no pattern that
// parses can carry the tombstone label, so deleted nodes are invisible to
// standing queries and one-shot matches alike.
func TestTombstoneLabelUnreachable(t *testing.T) {
	if !strings.ContainsAny(TombstoneLabel, " \t\n") {
		t.Fatal("TombstoneLabel must contain whitespace: text-format labels are whitespace-delimited tokens")
	}
	s := NewStore(chain([]string{"A", "B"}, 4), Config{})
	if _, err := s.Apply([]Mutation{{Op: OpDeleteNode, Node: 0}}); err != nil {
		t.Fatal(err)
	}
	// Even quoting the label verbatim cannot produce a pattern node with
	// it: the line splits into too many fields.
	if _, err := s.Register("node a " + TombstoneLabel); err == nil {
		t.Fatal("pattern carrying the tombstone label must not register")
	}
	if _, err := s.Current().Engine().Snapshot().ParsePattern("node a " + TombstoneLabel); err == nil {
		t.Fatal("one-shot pattern carrying the tombstone label must not parse")
	}
}

func TestStoreRegisterRejectsBadPatterns(t *testing.T) {
	s := NewStore(chain([]string{"A"}, 2), Config{})
	for _, src := range []string{
		"",                    // empty
		"node a A\nnode b B",  // disconnected
		"bogus line here too", // unparseable
	} {
		if _, err := s.Register(src); err == nil {
			t.Fatalf("pattern %q should be rejected", src)
		}
	}
	if s.NumQueries() != 0 {
		t.Fatal("rejected registrations must not be retained")
	}
}

func TestStoreUnregister(t *testing.T) {
	s := NewStore(chain([]string{"A", "B"}, 4), Config{})
	sq := edgePattern(t, s)
	if !s.Unregister(sq.ID()) {
		t.Fatal("unregister known id")
	}
	if s.Unregister(sq.ID()) {
		t.Fatal("double unregister should report false")
	}
	// Updates after unregistration do not maintain the dropped query.
	out, err := s.Apply([]Mutation{{Op: OpDeleteEdge, U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Recomputed) != 0 {
		t.Fatalf("recomputed %v for zero registered queries", out.Recomputed)
	}
}

// TestStoreLocality pins the ball-locality bound: an edge mutation at one
// end of a long chain must not re-evaluate balls at the other end.
func TestStoreLocality(t *testing.T) {
	labels := []string{"X"}
	g := chain(labels, 80)
	s := NewStore(g, Config{})
	sq, err := s.Register("node a A\nnode b B\nedge a b") // radius 1
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Apply([]Mutation{{Op: OpDeleteEdge, U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty centers: nodes 0 and 1 carry no standing label, so the radius-1
	// sweep reaches them alone (0 hops); neither carries a pattern label, so
	// zero balls are evaluated.
	if out.Recomputed[sq.ID()] != 0 {
		t.Fatalf("recomputed %d balls, want 0 (label precheck)", out.Recomputed[sq.ID()])
	}
	sq2, err := s.Register("node a X\nnode b X\nedge a b") // radius 1, labels match
	if err != nil {
		t.Fatal(err)
	}
	out, err = s.Apply([]Mutation{{Op: OpInsertEdge, U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if n := out.Recomputed[sq2.ID()]; n == 0 || n > 4 {
		t.Fatalf("recomputed %d balls; locality bound is ≈3 for radius 1", n)
	}
	checkAgainstScratch(t, s, sq2)
	var res *core.Result
	if res, _ = sq2.Result(); res.Len() == 0 {
		t.Fatal("X->X chain edges should match")
	}
}

func TestStoreSetLabel(t *testing.T) {
	g := chain([]string{"A", "B", "C"}, 6) // A->B->C->A->B->C
	s := NewStore(g, Config{})
	sq := edgePattern(t, s) // A->B, matches twice
	if res, _ := sq.Result(); res.Len() != 2 {
		t.Fatalf("want 2 matches before relabel, got %d", res.Len())
	}

	// Relabel node 1 (B) to A: the A0->B1 match disappears, the label
	// index moves the node, and the standing query tracks it.
	if _, err := s.Apply([]Mutation{{Op: OpSetLabel, Node: 1, Label: "A"}}); err != nil {
		t.Fatal(err)
	}
	cur := s.Current().Graph()
	if got := cur.LabelName(1); got != "A" {
		t.Fatalf("node 1 label = %q after set_label", got)
	}
	if got := cur.NodesWithLabelName("B"); len(got) != 1 || got[0] != 4 {
		t.Fatalf("label index for B = %v, want [4]", got)
	}
	if got := cur.NodesWithLabelName("A"); len(got) != 3 {
		t.Fatalf("label index for A = %v, want 3 nodes", got)
	}
	if res, _ := sq.Result(); res.Len() != 1 {
		t.Fatalf("want 1 match after relabel, got %d", res.Len())
	}
	checkAgainstScratch(t, s, sq)

	// A brand-new label interns into the master table and matches a query
	// registered before it existed.
	sqNew, err := s.Register("node a Z\nnode b C\nedge a b")
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := sqNew.Result(); res.Len() != 0 {
		t.Fatal("Z does not exist yet")
	}
	if _, err := s.Apply([]Mutation{{Op: OpSetLabel, Node: 1, Label: "Z"}}); err != nil {
		t.Fatal(err)
	}
	if res, _ := sqNew.Result(); res.Len() != 1 {
		t.Fatalf("Z1->C2 should match once, got %d", res.Len())
	}
	checkAgainstScratch(t, s, sqNew)

	// Old versions stay immutable.
	if got := s.Current().Graph().LabelName(1); got != "Z" {
		t.Fatalf("node 1 = %q", got)
	}

	// Relabeling to the same label is a no-op inside the batch but the
	// batch still publishes a version.
	before := s.Current().ID()
	if _, err := s.Apply([]Mutation{{Op: OpSetLabel, Node: 1, Label: "Z"}}); err != nil {
		t.Fatal(err)
	}
	if s.Current().ID() != before+1 {
		t.Fatal("no-op relabel batch should still version")
	}

	// Rejections: missing target, empty and reserved labels, deleted and
	// out-of-range nodes.
	if _, err := s.Apply([]Mutation{{Op: OpDeleteNode, Node: 5}}); err != nil {
		t.Fatal(err)
	}
	ver := s.Current().ID()
	bad := [][]Mutation{
		{{Op: OpSetLabel, Node: 9, Label: "A"}},
		{{Op: OpSetLabel, Node: -1, Label: "A"}},
		{{Op: OpSetLabel, Node: 0, Label: ""}},
		{{Op: OpSetLabel, Node: 0, Label: TombstoneLabel}},
		{{Op: OpSetLabel, Node: 5, Label: "A"}}, // deleted
	}
	for _, muts := range bad {
		if _, err := s.Apply(muts); err == nil {
			t.Fatalf("batch %v should be rejected", muts)
		}
	}
	if s.Current().ID() != ver {
		t.Fatal("rejected set_label batches must not publish")
	}
}
