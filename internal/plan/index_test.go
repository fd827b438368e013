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

// TestIndexPatchedEqualsRebuilt chains Patched over random batches of all
// five update ops and holds every version's patched index — outSig, inSig
// and every carried hop level — to NewIndex + hopSig on that version's graph,
// and the predecessor's arrays to what they were before the patch. Levels
// grow lazily along the chain, so patches carry 1 to 4 of them.
func TestIndexPatchedEqualsRebuilt(t *testing.T) {
	// More labels than signature bits, so folded labels share a bit and a
	// stale bit would survive an OR.
	alphabet := make([]string, 80)
	for i := range alphabet {
		alphabet[i] = fmt.Sprintf("L%d", i)
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &mutableGraph{labels: graph.NewLabels(), edges: make(map[[2]int32]bool)}
		labelsInUse := alphabet[:3+rng.Intn(len(alphabet)-3)]
		n := 5 + rng.Intn(60)
		for i := 0; i < n; i++ {
			m.lbl = append(m.lbl, labelsInUse[rng.Intn(len(labelsInUse))])
		}
		for i := rng.Intn(3 * n); i > 0; i-- {
			m.edges[[2]int32{rng.Int31n(int32(n)), rng.Int31n(int32(n))}] = true
		}
		g := m.build()
		ix := NewIndex(g)
		for step := 0; step < 25; step++ {
			if rng.Intn(4) == 0 {
				ix.hopSig(rng.Intn(4)) // a planned query of that radius ran on this version
			}
			before := &Index{outSig: slices.Clone(ix.outSig), inSig: slices.Clone(ix.inSig)}
			for _, level := range ix.hop {
				before.hop = append(before.hop, slices.Clone(level))
			}

			m.mutate(rng, labelsInUse)
			next := m.build()
			patched, st := ix.Patched(next, deltaBetween(g, next))

			where := fmt.Sprintf("seed %d step %d", seed, step)
			if len(patched.hop) != len(before.hop) || len(st.Levels) != len(before.hop) {
				t.Fatalf("%s: %d levels carried (%d counted), predecessor had %d", where, len(patched.hop), len(st.Levels), len(before.hop))
			}
			fresh := NewIndex(next)
			if !slices.Equal(patched.outSig, fresh.outSig) || !slices.Equal(patched.inSig, fresh.inSig) {
				t.Fatalf("%s: patched one-hop signatures differ from a rebuild", where)
			}
			for k := range patched.hop {
				if !slices.Equal(patched.hop[k], fresh.hopSig(k)) {
					t.Fatalf("%s: patched hop level %d differs from a rebuild", where, k)
				}
			}
			if !patched.Equal(fresh) || patched.Graph() != next {
				t.Fatalf("%s: Equal disagrees with the field comparison", where)
			}
			if !slices.Equal(ix.outSig, before.outSig) || !slices.Equal(ix.inSig, before.inSig) || len(ix.hop) != len(before.hop) {
				t.Fatalf("%s: the patch wrote into its predecessor", where)
			}
			for k := range before.hop {
				if !slices.Equal(ix.hop[k], before.hop[k]) {
					t.Fatalf("%s: the patch wrote into its predecessor's level %d", where, k)
				}
			}
			g, ix = next, patched
		}
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
