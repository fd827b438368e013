package graph

import (
	"maps"
	"slices"
)

// Adjacency is stored one direction at a time as paged CSR (compressed
// sparse rows). Nodes are grouped in pages of pageSize; a live-store version
// that follows another by one update batch shares every page the batch did
// not touch and rebuilds the rest, so what a version allocates follows its
// batch and not |V|. A page is 4 bytes per edge plus 2 KB of offsets.
const (
	pageBits = 9
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// CSR is one direction of a graph's adjacency: row v lists node v's
// neighbours in that direction, ascending. Every page holds the rows of
// pageSize nodes (the last page the remainder) as one target array, the rows
// back to back, and one offset per row plus one, relative to that array. A
// row read loads no per-row header. The zero value is empty; copies share
// everything and nothing is ever written after construction. Derive a
// changed CSR through Edit.
type CSR struct {
	pages []csrPage
	n     int
}

// csrPage holds the rows of one page: row i is to[off[i]:off[i+1]].
type csrPage struct {
	off []int32
	to  []int32
}

// Len returns the number of rows.
func (c CSR) Len() int { return c.n }

// Row returns row v. The slice is shared; callers must not mutate it.
func (c CSR) Row(v int32) []int32 {
	p := &c.pages[v>>pageBits]
	i := v & pageMask
	return p.to[p.off[i]:p.off[i+1]]
}

// pagedCSR cuts a flat CSR — row v is to[start[v]:start[v+1]], start holding
// one entry per row plus one — into pages. The pages' targets are windows of
// to, which must not be written afterwards; their offsets are rebased into one
// array of their own, and start may be discarded.
func pagedCSR(start, to []int32) CSR {
	n := len(start) - 1
	np := (n + pageMask) >> pageBits
	off := make([]int32, 0, n+np)
	pages := make([]csrPage, 0, np)
	for lo := 0; lo < n; lo += pageSize {
		hi := min(lo+pageSize, n)
		o := len(off)
		for _, x := range start[lo : hi+1] {
			off = append(off, x-start[lo])
		}
		pages = append(pages, csrPage{
			off: off[o:len(off):len(off)],
			to:  to[start[lo]:start[hi]:start[hi]],
		})
	}
	return CSR{pages: pages, n: n}
}

// transpose returns the flat CSR (start, to) of the reverse of the n-row
// flat CSR it is given: row w lists, ascending, every r whose row holds w,
// once per occurrence.
func transpose(n int, start, to []int32) (tstart, tto []int32) {
	tstart = make([]int32, n+1)
	for _, w := range to {
		tstart[w+1]++
	}
	for i := 0; i < n; i++ {
		tstart[i+1] += tstart[i]
	}
	next := slices.Clone(tstart[:n])
	tto = make([]int32, len(to))
	for r := 0; r < n; r++ {
		for _, w := range to[start[r]:start[r+1]] {
			tto[next[w]] = int32(r)
			next[w]++
		}
	}
	return tstart, tto
}

// dedupRows drops repeats from the sorted rows of a flat CSR in place,
// rewriting start, and returns the shortened targets.
func dedupRows(start, to []int32) []int32 {
	w := int32(0)
	for r := 0; r+1 < len(start); r++ {
		lo, hi := start[r], start[r+1]
		start[r] = w
		for _, x := range to[lo:hi] {
			if w == start[r] || to[w-1] != x {
				to[w] = x
				w++
			}
		}
	}
	start[len(start)-1] = w
	return to[:w]
}

// Edit starts a changed copy of c.
func (c CSR) Edit() *CSREdit {
	return &CSREdit{base: c, rows: make(map[int32][]int32), n: c.n}
}

// CSREdit is a CSR under construction from a predecessor. It records the
// rows it replaces; reads see those and the predecessor's others. Freeze
// rebuilds each page a replaced row lives in, once, and shares every other
// page with the predecessor, which is never written. An abandoned edit
// leaves nothing behind. Not safe for concurrent use.
type CSREdit struct {
	base CSR
	rows map[int32][]int32 // replaced and appended rows, owned by the edit
	n    int
}

// Row returns row v as the edit reads it. Callers must not mutate it.
func (e *CSREdit) Row(v int32) []int32 {
	if row, ok := e.rows[v]; ok {
		return row
	}
	return e.base.Row(v)
}

// Own returns row v as a slice of the edit's own, copying the predecessor's
// on first use. The caller may write it in place, and hands a row that grew
// or shrank back through Set.
func (e *CSREdit) Own(v int32) []int32 {
	row, ok := e.rows[v]
	if !ok {
		row = slices.Clone(e.base.Row(v))
		e.rows[v] = row
	}
	return row
}

// Set replaces row v with row, which must be sorted and duplicate-free. The
// edit keeps row: the caller must write it afterwards only through Own.
func (e *CSREdit) Set(v int32, row []int32) { e.rows[v] = row }

// Append adds an empty row after the last.
func (e *CSREdit) Append() {
	e.rows[int32(e.n)] = nil
	e.n++
}

// Replaced lists the rows the edit replaced or appended, in no order.
func (e *CSREdit) Replaced() []int32 { return slices.Collect(maps.Keys(e.rows)) }

// Freeze returns the edited CSR and the number of the predecessor's pages
// it rebuilt; a page appended rows opened is built, not counted. The edit
// must not be used afterwards.
func (e *CSREdit) Freeze() (CSR, int) {
	if len(e.rows) == 0 {
		return e.base, 0
	}
	np := (e.n + pageMask) >> pageBits
	pages := make([]csrPage, np)
	copy(pages, e.base.pages)
	touched := make([]bool, np)
	for v := range e.rows {
		touched[v>>pageBits] = true
	}
	rebuilt := 0
	for p, t := range touched {
		if !t {
			continue
		}
		pages[p] = e.page(p)
		if p < len(e.base.pages) {
			rebuilt++
		}
	}
	return CSR{pages: pages, n: e.n}, rebuilt
}

// page builds page p from the rows the edit reads, offsets and targets in
// one allocation.
func (e *CSREdit) page(p int) csrPage {
	lo := int32(p << pageBits)
	hi := min(lo+pageSize, int32(e.n))
	total := 0
	for v := lo; v < hi; v++ {
		total += len(e.Row(v))
	}
	rows := int(hi - lo)
	buf := make([]int32, rows+1+total)
	off, to := buf[:rows+1:rows+1], buf[rows+1:]
	k := 0
	for v := lo; v < hi; v++ {
		off[v-lo] = int32(k)
		k += copy(to[k:], e.Row(v))
	}
	off[rows] = int32(k)
	return csrPage{off: off, to: to}
}
