package graph

import "slices"

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

// A label row's signatures are stored in pages of SigPageSize behind the
// row's own directory of pages (SigRow), so a version that follows another
// by one update batch copies the directory of a row whose signatures it
// rewrote and the pages holding them, and shares every other page. A page
// is 4 KB: a touched row at 100k nodes (≈500 nodes a label) copies a
// two-entry directory and one page, where a flat row was ≈8 KB. Smaller
// pages copy less (1 KB pages save ≈20 KB a 4-edge batch at 100k nodes), but
// a walk over a row (the global pass's seeding) then crosses more of the
// scattered pages that churn leaves behind: on a version 20 000 batches old
// it took ≈22 % longer than over whole rows with 1 KB pages, ≈11 % with 2 KB
// and at most ≈7 % with 4 KB. A row's last page holds its remainder, so a
// graph of a few nodes holds a few signatures.
const (
	sigPageBits = 8
	SigPageSize = 1 << sigPageBits
	sigPageMask = SigPageSize - 1
)

// SigRow is the signatures of one label row in pages of SigPageSize, the
// last one shorter: the signature of the node of rank i is
// row[i/SigPageSize][i%SigPageSize] (At). A walk over a row reads it page by
// page. Shared; callers must not mutate it.
type SigRow [][]Sig

// At returns the signature of the row's node of rank i.
func (r SigRow) At(i int32) Sig { return r[i>>sigPageBits][i&sigPageMask] }

// sigPages returns the number of pages a row of n signatures takes.
func sigPages(n int) int { return (n + sigPageMask) >> sigPageBits }

// SigRow returns the signatures of NodesWithLabel(label), rank for rank:
// node v's is SigRow(Label(v)).At(LabelRanks()[v]). Every graph carries them
// but those a BallScratch builds, which return nil.
func (g *Graph) SigRow(label int32) SigRow { return g.labelRow(label).sigs }

// SigsWithLabel returns a copy of SigRow(label) as one slice, index for
// index with NodesWithLabel(label). It allocates; a reader on a hot path
// walks SigRow.
func (g *Graph) SigsWithLabel(label int32) []Sig {
	row := g.SigRow(label)
	if row == nil {
		return nil
	}
	sigs := make([]Sig, 0, len(g.NodesWithLabel(label)))
	for _, page := range row {
		sigs = append(sigs, page...)
	}
	return sigs
}

// SigPagesCopied returns how many of its predecessor's signature pages
// FromParts copied to derive g (see patchedRows); 0 for any other graph.
func (g *Graph) SigPagesCopied() int { return g.sigPagesCopied }

// labelRow is one label's row of the label index: its nodes, ascending, and
// their signatures in the same order.
type labelRow struct {
	nodes []int32
	sigs  SigRow
}

// indexLabels lays out the label index of nodes labelled nodeLbl: lblAt,
// indexed by label id up to the largest one used, holds each used label's
// position in rows, and 0 for the rest; rows[0] is empty, and every other
// row's nodes ascend in a window of one array. rank[v] gets v's index in its
// row. Both slices are sized by the labels used, not by the label table, so
// a pattern of a few nodes costs a few hundred bytes.
func indexLabels(nodeLbl, rank []int32) (lblAt []int32, rows []labelRow) {
	top := int32(-1)
	for _, l := range nodeLbl {
		top = max(top, l)
	}
	lblAt = make([]int32, top+1)
	used := 0
	for _, l := range nodeLbl {
		if lblAt[l] == 0 {
			used++
		}
		lblAt[l]++ // counted first, then replaced by the row's position
	}
	rows = make([]labelRow, 1, used+1)
	flat := make([]int32, len(nodeLbl))
	for l, c := range lblAt {
		if c > 0 {
			lblAt[l] = int32(len(rows))
			rows = append(rows, labelRow{nodes: flat[:0:c]})
			flat = flat[c:]
		}
	}
	for v, l := range nodeLbl {
		row := &rows[lblAt[l]]
		rank[v] = int32(len(row.nodes))
		row.nodes = append(row.nodes, int32(v))
	}
	return lblAt, rows
}

// indexSigs gives every row of g's label index its nodes' signatures, folded
// from g's adjacency into pages that are windows of one array, behind
// directories that are windows of another.
func (g *Graph) indexSigs() {
	pages := 0
	for _, row := range g.rows {
		pages += sigPages(len(row.nodes))
	}
	flat, dirs := make([]Sig, len(g.nodeLbl)), make(SigRow, pages)
	for k := 1; k < len(g.rows); k++ {
		row := &g.rows[k]
		n := len(row.nodes)
		row.sigs, dirs = dirs[:sigPages(n):sigPages(n)], dirs[sigPages(n):]
		for i, v := range row.nodes {
			flat[i] = g.NeighbourSig(v)
		}
		for p := range row.sigs {
			lo, hi := p<<sigPageBits, min((p+1)<<sigPageBits, n)
			row.sigs[p] = flat[lo:hi:hi]
		}
		flat = flat[n:]
	}
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
// batch d with changed holding the label rows that differ, and returns it
// with the number of prev's signature pages it copied. A node's signature
// reads its own rows and its neighbours' labels, so it can differ only on
//
//	A = d.Rows ∪ N[d.Relabelled]
//
// with N[·] the closed undirected neighbourhood in g (a neighbour a
// relabelled node lost in the same batch is in Rows). There it is
// recomputed from g — a Bloom bit cannot be cleared, so nothing is OR-ed
// into an inherited word — and written only where it differs. A changed
// row gets a directory of its own (movedRow), and a label's first row a
// place at the end of rows. Any other row takes a copy of prev's directory
// on its first write, and every row a copy of prev's page on its first
// write there. Every other row and page, and the index itself when nothing
// is written, are prev's own. prev is never written.
func (g *Graph) patchedRows(prev *Graph, changed map[int32][]int32, d Delta) (lblAt []int32, rows []labelRow, copied int) {
	area := slices.Clone(d.Rows)
	for _, v := range d.Relabelled {
		area = g.AppendIn(g.AppendOut(append(area, v), v), v)
	}
	lblAt, rows = prev.lblAt, prev.rows
	if len(changed) > 0 {
		rows = slices.Clone(rows)
		need, first := len(lblAt), false
		for lbl := range changed {
			need, first = max(need, int(lbl)+1), first || prev.rowAt(lbl) == 0
		}
		if first {
			lblAt = make([]int32, need)
			copy(lblAt, prev.lblAt)
		}
		for lbl, nodes := range changed {
			if lblAt[lbl] == 0 {
				lblAt[lbl] = int32(len(rows))
				rows = append(rows, labelRow{})
			}
			var n int
			rows[lblAt[lbl]], n = prev.movedRow(lbl, nodes)
			copied += n
		}
	}
	owned := len(changed) > 0
	for _, v := range area {
		lbl, r := g.nodeLbl[v], g.rank[v]
		k := lblAt[lbl]
		s := g.NeighbourSig(v)
		if rows[k].sigs.At(r) == s {
			continue
		}
		if !owned {
			rows, owned = slices.Clone(rows), true
		}
		row, base := &rows[k], prev.SigRow(lbl)
		if len(base) > 0 && &row.sigs[0] == &base[0] {
			row.sigs = slices.Clone(row.sigs)
		}
		p := r >> sigPageBits
		if int(p) < len(base) && &row.sigs[p][0] == &base[p][0] {
			row.sigs[p] = slices.Clone(row.sigs[p])
			copied++
		}
		row.sigs[p][r&sigPageMask] = s
	}
	return lblAt, rows, copied
}

// rowAt returns label's position in g's rows, 0 (the empty row) when it has
// none.
func (g *Graph) rowAt(label int32) int32 {
	if uint32(label) < uint32(len(g.lblAt)) {
		return g.lblAt[label]
	}
	return 0
}

// labelRow returns label's row of g's label index.
func (g *Graph) labelRow(label int32) labelRow {
	if k := g.rowAt(label); k != 0 {
		return g.rows[k]
	}
	return labelRow{}
}

// movedRow returns label lbl's row holding nodes, the row's nodes after a
// batch that followed g, and how many of g's signature pages it copied: a
// page whose nodes sit at the ranks they had in g is g's, and any other is
// a new page of the words g holds for its nodes (zero for a node g did not
// label lbl, which patchedRows recomputes).
func (g *Graph) movedRow(lbl int32, nodes []int32) (labelRow, int) {
	old := g.labelRow(lbl)
	sigs, copied := make(SigRow, sigPages(len(nodes))), 0
	for p := range sigs {
		lo, hi := p<<sigPageBits, min((p+1)<<sigPageBits, len(nodes))
		if hi <= len(old.nodes) && slices.Equal(nodes[lo:hi], old.nodes[lo:hi]) {
			sigs[p] = old.sigs[p][:hi-lo]
			continue
		}
		page := make([]Sig, hi-lo)
		for i, v := range nodes[lo:hi] {
			if int(v) < g.NumNodes() && g.nodeLbl[v] == lbl {
				page[i] = old.sigs.At(g.rank[v])
			}
		}
		sigs[p] = page
		if p < len(old.sigs) {
			copied++
		}
	}
	return labelRow{nodes, sigs}, copied
}
