package live

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// adjacencyPage is the rows of one adjacency page (graph's pageSize): the
// differential test of publishing checks that its runs reach a page opened
// by add_node.
const adjacencyPage = 128

// publishModel is a store's state as plain data: each node's label name,
// TombstoneLabel once deleted, and the edge set.
type publishModel struct {
	lbl   []string
	edges map[[2]int32]bool
}

func (m *publishModel) clone() *publishModel {
	c := &publishModel{lbl: slices.Clone(m.lbl), edges: make(map[[2]int32]bool, len(m.edges))}
	for e := range m.edges {
		c.edges[e] = true
	}
	return c
}

// build returns the model as a Builder-built graph over labels, which must
// already hold every name the model uses.
func (m *publishModel) build(labels *graph.Labels) *graph.Graph {
	b := graph.NewBuilder(labels)
	for _, l := range m.lbl {
		b.AddNode(l)
	}
	for e := range m.edges {
		_ = b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// apply applies m to the model as the store would, or reports false, with
// the model unchanged, when the store would refuse it.
func (m *publishModel) apply(mut Mutation) bool {
	alive := func(v int32) bool { return v >= 0 && int(v) < len(m.lbl) && m.lbl[v] != TombstoneLabel }
	switch mut.Op {
	case OpAddNode:
		m.lbl = append(m.lbl, mut.Label)
	case OpSetLabel:
		if !alive(mut.Node) {
			return false
		}
		m.lbl[mut.Node] = mut.Label
	case OpDeleteNode:
		if !alive(mut.Node) {
			return false
		}
		for e := range m.edges {
			if e[0] == mut.Node || e[1] == mut.Node {
				delete(m.edges, e)
			}
		}
		m.lbl[mut.Node] = TombstoneLabel
	case OpInsertEdge, OpDeleteEdge:
		e := [2]int32{mut.U, mut.V}
		if !alive(mut.U) || !alive(mut.V) || m.edges[e] != (mut.Op == OpDeleteEdge) {
			return false
		}
		if mut.Op == OpInsertEdge {
			m.edges[e] = true
		} else {
			delete(m.edges, e)
		}
	}
	return true
}

// publishImage is everything publishing derives for a version, copied out:
// labels and both directions' rows per node, each label's nodes and
// signatures per label id, and the label ranks.
type publishImage struct {
	lbl     []int32
	out, in [][]int32
	rows    [][]int32
	sigs    [][]graph.Sig
	ranks   []int32
}

// publishImageOf copies g's image over the first labels label ids.
func publishImageOf(g *graph.Graph, labels int) publishImage {
	im := publishImage{lbl: slices.Clone(g.NodeLabels()), ranks: slices.Clone(g.LabelRanks())}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		im.out = append(im.out, g.Out(v))
		im.in = append(im.in, g.In(v))
	}
	for lbl := int32(0); lbl < int32(labels); lbl++ {
		im.rows = append(im.rows, slices.Clone(g.NodesWithLabel(lbl)))
		im.sigs = append(im.sigs, g.SigsWithLabel(lbl))
	}
	return im
}

// diff names the first difference between two images, or returns "".
func (a publishImage) diff(b publishImage) string {
	switch {
	case !slices.Equal(a.lbl, b.lbl):
		return "node labels"
	case !slices.Equal(a.ranks, b.ranks):
		return "label ranks"
	}
	for name, pair := range map[string][2][][]int32{"out-row": {a.out, b.out}, "in-row": {a.in, b.in}, "label row": {a.rows, b.rows}} {
		if len(pair[0]) != len(pair[1]) {
			return fmt.Sprintf("%d vs %d of %ss", len(pair[0]), len(pair[1]), name)
		}
		for i := range pair[0] {
			if !slices.Equal(pair[0][i], pair[1][i]) {
				return fmt.Sprintf("%s %d: %v vs %v", name, i, pair[0][i], pair[1][i])
			}
		}
	}
	for lbl := range a.sigs {
		if !slices.Equal(a.sigs[lbl], b.sigs[lbl]) {
			return fmt.Sprintf("signatures of label %d", lbl)
		}
	}
	return ""
}

// publishCoverage counts the boundaries a publish run reached.
type publishCoverage struct {
	opened   int // add_nodes whose id opened an adjacency page
	edges    int // edge mutations with an end at the first or last row of a page
	crossSig int // versions that rewrote a signature past a row's first page
}

// publishRun drives a store through batches drawn from next — edge inserts
// and deletes, add_node, set_label and delete_node, on nodes at the first
// and last rows of pages, the last row of the partial last page and
// anywhere — and after every batch holds the new version to a Builder-built
// graph of the same state, and its predecessor to the image it had before
// the batch. A graph of 2 or 3 labels over 507 to 1 152 nodes has label
// rows of more than SigPageSize nodes, and starts a few nodes short of a
// page, so add_node opens one.
func publishRun(t testing.TB, next func() int, batches int, cov *publishCoverage) {
	t.Helper()
	alphabet := []string{"A", "B", "C"}[:2+next()%2]
	n := adjacencyPage*(4+next()%6) - next()%6
	m := &publishModel{edges: map[[2]int32]bool{}}
	for i := 0; i < n; i++ {
		m.lbl = append(m.lbl, alphabet[next()%len(alphabet)])
	}
	for i := 0; i < 2*n; i++ {
		m.edges[[2]int32{int32(next() % n), int32(next() % n)}] = true
	}
	s := NewStore(m.build(nil), Config{Workers: 1})

	pick := func() int32 {
		n := len(m.lbl)
		switch next() % 4 {
		case 0:
			return int32(next() % n)
		case 1:
			return int32(n - 1) // the last row of the partial last page
		default: // the first or last row of a page
			v := min(n-1, 64*(next()%(n/64+1))-next()%2)
			return int32(max(0, v))
		}
	}
	for batch := 0; batch < batches; batch++ {
		prev := s.Current().Graph()
		labels := prev.Labels().Len()
		before := publishImageOf(prev, labels)

		after := m.clone()
		var muts []Mutation
		for k := 1 + next()%4; k > 0; k-- {
			var mut Mutation
			switch next() % 8 {
			case 0:
				mut = Mutation{Op: OpAddNode, Label: alphabet[next()%len(alphabet)]}
			case 1:
				mut = Mutation{Op: OpSetLabel, Node: pick(), Label: alphabet[next()%len(alphabet)]}
			case 2:
				mut = Mutation{Op: OpDeleteNode, Node: pick()}
			default:
				mut = Mutation{Op: OpInsertEdge, U: pick(), V: pick()}
				if after.edges[[2]int32{mut.U, mut.V}] {
					mut.Op = OpDeleteEdge
				}
			}
			if mut.Op == OpSetLabel && int(mut.Node) < len(after.lbl) && after.lbl[mut.Node] == mut.Label {
				continue // a no-op the store takes and the model need not see
			}
			if after.apply(mut) {
				muts = append(muts, mut)
			}
		}
		if len(muts) == 0 {
			continue
		}
		res, err := s.Apply(muts)
		if err != nil {
			t.Fatalf("batch %d %v: %v", batch, muts, err)
		}
		m = after
		g := s.Current().Graph()
		for _, v := range res.AddedNodes {
			if v%adjacencyPage == 0 {
				cov.opened++
			}
		}
		for _, mut := range muts {
			edge := mut.Op == OpInsertEdge || mut.Op == OpDeleteEdge
			if u, v := mut.U%adjacencyPage, mut.V%adjacencyPage; edge && (u == 0 || u == adjacencyPage-1 || v == 0 || v == adjacencyPage-1) {
				cov.edges++
			}
		}

		where := fmt.Sprintf("batch %d %v", batch, muts)
		want := publishImageOf(m.build(g.Labels()), g.Labels().Len())
		got := publishImageOf(g, g.Labels().Len())
		if d := got.diff(want); d != "" {
			t.Fatalf("%s: the published version differs from a Builder's in its %s", where, d)
		}
		if d := publishImageOf(prev, labels).diff(before); d != "" {
			t.Fatalf("%s: publishing wrote into the predecessor: its %s changed", where, d)
		}
		for lbl := range before.sigs {
			old, cur := before.sigs[lbl], got.sigs[lbl]
			for i := graph.SigPageSize; i < min(len(old), len(cur)); i++ {
				if old[i] != cur[i] && before.rows[lbl][i] == got.rows[lbl][i] {
					cov.crossSig++
					break
				}
			}
		}
	}
}

// TestPublishAgainstBuilder is the differential test of publishing: random
// batch sequences of all five update ops, aimed at the first and last rows
// of adjacency pages, the partial last page, add_nodes that open a page and
// label rows that span signature pages, with every version held to a
// Builder-built graph of the same state and every predecessor to what it
// read before the batch.
func TestPublishAgainstBuilder(t *testing.T) {
	var cov publishCoverage
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		publishRun(t, func() int { return rng.Intn(1 << 16) }, 40, &cov)
	}
	t.Logf("%+v", cov)
	if cov.opened == 0 || cov.edges == 0 || cov.crossSig == 0 {
		t.Fatalf("the runs missed a boundary: %+v", cov)
	}
}

// FuzzPublish is TestPublishAgainstBuilder with the batches drawn from the
// input: up to 16 batches, each version held to a Builder's and each
// predecessor to its image from before the batch.
func FuzzPublish(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 2, 5, 0, 0, 3, 2, 1, 0, 7, 7, 7, 0, 1, 2, 200, 100, 3, 3, 0, 1, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		var cov publishCoverage
		publishRun(t, next, 16, &cov)
	})
}
