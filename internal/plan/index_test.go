package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// mutableGraph is the test's own model of a live store: labels and an edge
// set under the five update ops, rebuilt into an immutable graph per version
// through the ordinary Builder — nothing of internal/live's bookkeeping, so
// the Delta handed to Patched is derived from the two graphs alone.
type mutableGraph struct {
	labels *graph.Labels
	lbl    []string
	edges  map[[2]int32]bool
}

const deleted = "\x00deleted"

func (m *mutableGraph) build() *graph.Graph {
	b := graph.NewBuilder(m.labels)
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

// deltaBetween is Delta by definition: the rows and labels that differ.
func deltaBetween(old, cur *graph.Graph) Delta {
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
	return d
}

// flat reads a paged signature array back node by node.
func flat(sigs graph.Paged[sig]) []sig {
	out := make([]sig, sigs.Len())
	for v := range out {
		out[v] = sigs.At(int32(v))
	}
	return out
}

// TestIndexPatchedEqualsRebuilt chains Patched over random batches of all
// five update ops on graphs of one to three signature pages, and holds every
// version's patched index to NewIndex on that version's graph and the
// predecessor's signatures to what they were before the patch. A patch may
// copy only pages that hold a recomputed signature.
func TestIndexPatchedEqualsRebuilt(t *testing.T) {
	// More labels than signature bits, so folded labels share a bit and a
	// stale bit would survive an OR.
	alphabet := make([]string, 80)
	for i := range alphabet {
		alphabet[i] = fmt.Sprintf("L%d", i)
	}
	shared := 0
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &mutableGraph{labels: graph.NewLabels(), edges: make(map[[2]int32]bool)}
		labelsInUse := alphabet[:3+rng.Intn(len(alphabet)-3)]
		// Every third chain starts just below a page boundary and grows
		// across it; the rest are small or span several pages.
		n := []int{5 + rng.Intn(60), 1000 + rng.Intn(400), 508 + rng.Intn(4)}[seed%3]
		for i := 0; i < n; i++ {
			m.lbl = append(m.lbl, labelsInUse[rng.Intn(len(labelsInUse))])
		}
		for i := rng.Intn(3 * n); i > 0; i-- {
			m.edges[[2]int32{rng.Int31n(int32(n)), rng.Int31n(int32(n))}] = true
		}
		g := m.build()
		ix := NewIndex(g)
		for step := 0; step < 25; step++ {
			before := flat(ix.sigs)

			m.mutate(rng, labelsInUse)
			next := m.build()
			d := deltaBetween(g, next)
			patched, st := ix.Patched(next, d)

			where := fmt.Sprintf("seed %d step %d", seed, step)
			fresh := NewIndex(next)
			if !slices.Equal(flat(patched.sigs), flat(fresh.sigs)) {
				t.Fatalf("%s: patched signatures differ from a rebuild", where)
			}
			if !patched.Equal(fresh) || patched.Graph() != next {
				t.Fatalf("%s: Equal disagrees with the field comparison", where)
			}
			if !slices.Equal(flat(ix.sigs), before) {
				t.Fatalf("%s: the patch wrote into its predecessor", where)
			}
			if st.OneHop < len(d.Rows) || st.Pages > st.OneHop {
				t.Fatalf("%s: %d signatures recomputed for %d changed rows, %d pages copied", where, st.OneHop, len(d.Rows), st.Pages)
			}
			if pages := (next.NumNodes() + 511) / 512; st.Pages < pages {
				shared++
			}
			g, ix = next, patched
		}
	}
	if shared == 0 {
		t.Fatal("no patch shared a page with its predecessor")
	}
}

// TestCacheInvalidateSharesPending: an entry with nothing pending adopts the
// batch's dirty slice, and entries holding one pending slice get one merged
// successor between them — while an entry stored in between keeps its own.
func TestCacheInvalidateSharesPending(t *testing.T) {
	c := newCache(8)
	q := p(t, "node a A\nnode b B\nedge a b")
	res := &core.Result{}
	for _, key := range []string{"k1", "k2"} {
		c.Put(key, q, []int32{0, 1}, 1, 0, 100, nil, nil, res)
	}
	first := []int32{3, 5}
	c.invalidate(1, func(int) []int32 { return first })
	c.Put("k3", q, []int32{0, 1}, 1, 1, 100, nil, nil, res)
	c.invalidate(2, func(int) []int32 { return []int32{4, 5} })

	pending := func(key string) []int32 {
		view, _ := c.Get(key, 2)
		return view.Pending
	}
	if p1, p2 := pending("k1"), pending("k2"); !slices.Equal(p1, []int32{3, 4, 5}) || &p1[0] != &p2[0] {
		t.Fatalf("k1 %v and k2 %v should share one merged slice", p1, p2)
	}
	if p3 := pending("k3"); !slices.Equal(p3, []int32{4, 5}) {
		t.Fatalf("k3 pending %v, want the second batch only", p3)
	}
	if !slices.Equal(first, []int32{3, 5}) {
		t.Fatalf("an adopted dirty slice was written: %v", first)
	}
}
