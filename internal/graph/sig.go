package graph

import (
	"maps"
	"slices"
)

// LabelBit maps a label id to its bit in a 64-bit Bloom word. Labels whose
// ids agree modulo 64 share a bit, so a word can claim a label that is not
// there but never miss one that is. TALE's NH-index (internal/approx) folds
// labels the same way.
func LabelBit(label int32) uint64 { return 1 << (uint32(label) % 64) }

// Sig is one node's neighbour-label signature: the labels of its
// out-neighbours (Out) and in-neighbours (In), each folded by LabelBit.
type Sig struct{ Out, In uint64 }

// Covers reports whether s has every bit of need. For a data node's s and a
// pattern node's need it is a necessary condition for the data node to have a
// successor, and a predecessor, of every label the pattern node has one of.
func (s Sig) Covers(need Sig) bool { return need.Out&^s.Out == 0 && need.In&^s.In == 0 }

// NeighbourSig folds the labels of v's neighbours, reading v's rows.
func (g *Graph) NeighbourSig(v int32) (s Sig) {
	row := g.AppendOut(make([]int32, 0, 16), v)
	for _, w := range row {
		s.Out |= LabelBit(g.nodeLbl[w])
	}
	for _, w := range g.AppendIn(row[:0], v) {
		s.In |= LabelBit(g.nodeLbl[w])
	}
	return s
}

// SigsWithLabel returns the signatures of NodesWithLabel(label), index for
// index: node v's is SigsWithLabel(Label(v))[LabelRanks()[v]], and a walk
// over one label's nodes reads theirs as one sequential run. Every graph
// carries them but those a BallScratch builds, which return nil. The slice
// is shared; callers must not mutate it.
func (g *Graph) SigsWithLabel(label int32) []Sig { return g.byLabel[label].sigs }

// labelRow is one label's row of the label index: its nodes, ascending, and
// their signatures in the same order.
type labelRow struct {
	nodes []int32
	sigs  []Sig
}

// indexRows pairs every row of byLabel with its nodes' signatures, folded
// from g's adjacency into windows of one array.
func (g *Graph) indexRows(byLabel map[int32][]int32) map[int32]labelRow {
	total := 0
	for _, nodes := range byLabel {
		total += len(nodes)
	}
	flat := make([]Sig, total)
	rows := make(map[int32]labelRow, len(byLabel))
	for lbl, nodes := range byLabel {
		sigs := flat[:len(nodes):len(nodes)]
		flat = flat[len(nodes):]
		for i, v := range nodes {
			sigs[i] = g.NeighbourSig(v)
		}
		rows[lbl] = labelRow{nodes, sigs}
	}
	return rows
}

// Delta names what one update batch changed between the graph FromParts is
// handed as its predecessor and the graph it builds.
type Delta struct {
	// Rows lists the nodes whose out- or in-row differs, the nodes the batch
	// added included.
	Rows []int32
	// Relabelled lists the nodes whose label differs, and the added nodes
	// again. Duplicates are tolerated in both lists.
	Relabelled []int32
}

// patchedRows derives g's label index from prev's, g following prev by the
// batch d with changed holding the node rows that differ. A node's signature
// reads its own rows and its neighbours' labels, so it can differ only on
//
//	A = d.Rows ∪ N[d.Relabelled]
//
// with N[·] the closed undirected neighbourhood in g (a neighbour a
// relabelled node lost in the same batch is in Rows). There it is
// recomputed from g — a Bloom bit cannot be cleared, so nothing is OR-ed
// into an inherited word. A changed row takes its other nodes' signatures
// from prev's rows, and a row A merely passes through is copied once; every
// other row is prev's own, shared. prev is never written.
func (g *Graph) patchedRows(prev *Graph, changed map[int32][]int32, d Delta) map[int32]labelRow {
	area := slices.Clone(d.Rows)
	for _, v := range d.Relabelled {
		area = g.AppendIn(g.AppendOut(append(area, v), v), v)
	}
	if len(changed) == 0 && len(area) == 0 {
		return prev.byLabel
	}
	rows := maps.Clone(prev.byLabel)
	owned := make(map[int32]bool, len(changed))
	for lbl, nodes := range changed {
		sigs := make([]Sig, len(nodes))
		old := prev.byLabel[lbl].sigs
		for i, v := range nodes {
			if int(v) < prev.NumNodes() && prev.nodeLbl[v] == lbl {
				sigs[i] = old[prev.rank[v]]
			} // else v was added or relabelled, so it is in A
		}
		rows[lbl] = labelRow{nodes, sigs}
		owned[lbl] = true
	}
	for _, v := range area {
		lbl := g.nodeLbl[v]
		row := rows[lbl]
		if !owned[lbl] {
			row.sigs = slices.Clone(row.sigs)
			rows[lbl] = row
			owned[lbl] = true
		}
		row.sigs[g.rank[v]] = g.NeighbourSig(v)
	}
	return rows
}
