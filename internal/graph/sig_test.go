package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// mutableGraph is the test's own model of a live store: labels and an edge
// set under the five update ops, rebuilt into an immutable graph per version
// through the ordinary Builder — nothing of internal/live's bookkeeping, so
// what FromParts is handed is derived from the two graphs alone.
type mutableGraph struct {
	labels *Labels
	lbl    []string
	edges  map[[2]int32]bool
}

const deleted = "\x00deleted"

func (m *mutableGraph) build() *Graph {
	b := NewBuilder(m.labels)
	for _, l := range m.lbl {
		b.AddNode(l)
	}
	for e := range m.edges {
		_ = b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// mutate applies 1-6 random ops of all five kinds.
func (m *mutableGraph) mutate(rng *rand.Rand, alphabet []string) {
	for k := 1 + rng.Intn(6); k > 0; k-- {
		n := int32(len(m.lbl))
		u, v := rng.Int31n(n), rng.Int31n(n)
		switch rng.Intn(8) {
		case 0: // add_node, sometimes wired up in the same batch
			m.lbl = append(m.lbl, alphabet[rng.Intn(len(alphabet))])
			if rng.Intn(2) == 0 && m.lbl[u] != deleted {
				m.edges[[2]int32{u, n}] = true
			}
		case 1: // delete_node
			for e := range m.edges {
				if e[0] == u || e[1] == u {
					delete(m.edges, e)
				}
			}
			m.lbl[u] = deleted
		case 2: // set_label
			if m.lbl[u] != deleted {
				m.lbl[u] = alphabet[rng.Intn(len(alphabet))]
			}
		default: // insert_edge / delete_edge
			if m.lbl[u] == deleted || m.lbl[v] == deleted {
				continue
			}
			if e := [2]int32{u, v}; m.edges[e] {
				delete(m.edges, e)
			} else {
				m.edges[e] = true
			}
		}
	}
}

// changeBetween is what FromParts takes about a batch, by definition: the
// label rows that differ, and the nodes whose rows or labels do.
func changeBetween(old, cur *Graph) (map[int32][]int32, Delta) {
	changed := make(map[int32][]int32)
	for lbl := int32(0); lbl < int32(cur.Labels().Len()); lbl++ {
		if row := cur.NodesWithLabel(lbl); !slices.Equal(old.NodesWithLabel(lbl), row) {
			changed[lbl] = row
		}
	}
	var d Delta
	for v := int32(0); v < int32(cur.NumNodes()); v++ {
		added := int(v) >= old.NumNodes()
		if added || old.Label(v) != cur.Label(v) {
			d.Relabelled = append(d.Relabelled, v)
		}
		if added || !slices.Equal(old.Out(v), cur.Out(v)) || !slices.Equal(old.In(v), cur.In(v)) {
			d.Rows = append(d.Rows, v)
		}
	}
	return changed, d
}

// labelIndex is a copy of everything FromParts derives: the label rows with
// their signatures (empty rows left out) and the label ranks.
type labelIndex struct {
	rows  map[int32][2]any
	ranks []int32
}

func indexOf(g *Graph) labelIndex {
	ix := labelIndex{rows: map[int32][2]any{}, ranks: slices.Clone(g.LabelRanks())}
	for lbl := int32(0); lbl < int32(g.Labels().Len()); lbl++ {
		if nodes := g.NodesWithLabel(lbl); len(nodes) > 0 {
			ix.rows[lbl] = [2]any{slices.Clone(nodes), slices.Clone(g.SigsWithLabel(lbl))}
		}
	}
	return ix
}

// TestFromPartsSignaturesEqualRebuilt chains FromParts over random batches of
// all five update ops on graphs of one to three pages, and holds every
// version's label rows, ranks and signatures to a Builder's on the same graph,
// and the predecessor's to what they were before the batch. More labels than
// signature bits, so folded labels share a bit and a stale bit would survive
// an OR. Some row must be shared with the predecessor along the way.
func TestFromPartsSignaturesEqualRebuilt(t *testing.T) {
	alphabet := make([]string, 80)
	for i := range alphabet {
		alphabet[i] = fmt.Sprintf("L%d", i)
	}
	shared := 0
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &mutableGraph{labels: NewLabels(), edges: make(map[[2]int32]bool)}
		labelsInUse := alphabet[:3+rng.Intn(len(alphabet)-3)]
		n := []int{5 + rng.Intn(60), 1000 + rng.Intn(400), 508 + rng.Intn(4)}[seed%3]
		for i := 0; i < n; i++ {
			m.lbl = append(m.lbl, labelsInUse[rng.Intn(len(labelsInUse))])
		}
		for i := rng.Intn(3 * n); i > 0; i-- {
			m.edges[[2]int32{rng.Int31n(int32(n)), rng.Int31n(int32(n))}] = true
		}
		g := m.build()
		for step := 0; step < 25; step++ {
			before := indexOf(g)
			m.mutate(rng, labelsInUse)
			want := m.build()
			changed, d := changeBetween(g, want)
			out, in := want.Rows()
			next := FromParts(want.Labels(), want.nodeLbl, out, in, changed, want.NumEdges(), "", g, d)

			where := fmt.Sprintf("seed %d step %d", seed, step)
			if got, w := indexOf(next), indexOf(want); !reflect.DeepEqual(got, w) {
				t.Fatalf("%s: the patched label index differs from a Builder's", where)
			}
			if !reflect.DeepEqual(indexOf(g), before) {
				t.Fatalf("%s: the patch wrote into its predecessor", where)
			}
			for lbl := int32(0); lbl < int32(g.Labels().Len()); lbl++ {
				if row, old := next.SigRow(lbl), g.SigRow(lbl); len(row) > 0 && len(old) > 0 && &row[0] == &old[0] {
					shared++
				}
			}
			g = next
		}
	}
	if shared == 0 {
		t.Fatal("no version shared a signature row with its predecessor")
	}
}
