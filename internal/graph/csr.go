package graph

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Adjacency is stored one direction at a time as paged CSR (compressed
// sparse rows) of encoded rows. Nodes are grouped in pages of pageSize rows,
// reached through a directory of page pointers; a live-store version that
// follows another by one update batch copies the directory (8 bytes a page)
// and rebuilds only the pages the batch touched, sharing every other, so what
// a version allocates follows its batch and not |V|. A page is its rows'
// bytes (≈2.2 per entry on the harness's graphs, ≈3.5 KB a page at 100k
// nodes) plus its 516 bytes of offsets, held inline.
//
// Row v lists v's neighbours in that direction, ascending and without
// repeats. An empty row takes no bytes; any other is
//
//   - its first target minus v, zigzag-encoded as a varint;
//   - one width byte w ∈ {1, 2, 3, 4}, the fewest bytes that hold the row's
//     largest later gap minus one;
//   - each later gap (target minus the one before) minus one, little-endian
//     in w bytes.
//
// A decode loads four bytes at every gap and masks off the w it wants, so
// its loop has no branch per entry; a page ends in pad bytes so that the
// load never runs past it. A row's length is 1 + (bytes after the width
// byte)/w, known without decoding.
//
// pageSize is 128: a 4-edge batch at 100k nodes copies 2 × 782 directory
// entries and ≈8 pages of ≈4 KB, where pages of 512 rows cost ≈13 KB each
// and larger directories buy nothing back on a read, which loads the
// directory entry, the page and the row's bytes whatever the page size.
const (
	pageBits = 7
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
	pad      = 3
)

// CSR is one direction of a graph's adjacency: row v lists node v's
// neighbours in that direction, ascending, in the encoding above. Every page
// holds the rows of pageSize nodes (the last page the remainder) back to
// back in one byte array, and one byte offset per row plus one. A row read
// loads no per-row header and decodes into the caller's buffer (AppendRow);
// Degree, Any, Intersects and Has read a row without writing it anywhere,
// and the last three stop where their answer is known. The zero value is
// empty; copies share everything and nothing is ever written after
// construction. Derive a changed CSR through Edit.
type CSR struct {
	pages []*csrPage
	n     int
}

// csrPage holds the rows of one page: row i is to[off[i]:off[i+1]], and
// pad bytes follow the last. The offsets sit inline, so a row read finds
// them and the bytes' header in one load of the page.
type csrPage struct {
	to  []byte
	off [pageSize + 1]int32
}

// Len returns the number of rows.
func (c CSR) Len() int { return c.n }

// bytes returns the page array row v lies in and the row's bounds in it.
func (c CSR) bytes(v int32) (to []byte, lo, hi int) {
	p := c.pages[v>>pageBits]
	i := v & pageMask
	return p.to, int(p.off[i]), int(p.off[i+1])
}

// head decodes the start of a non-empty row v at to[lo]: its first target,
// the mask of its gap width w, w, and the position of its first later gap.
// A varint of up to four bytes — a first gap of up to 2^27 either way — is
// cut out of one four-byte load without a loop; the load stays inside the
// page, whose last row is followed by pad bytes.
func head(to []byte, lo int, v int32) (x int32, mask uint32, w, at int) {
	b := to[lo : lo+4 : lo+4]
	word := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	var z uint32
	if stop := ^word & 0x80808080; stop != 0 {
		k := bits.TrailingZeros32(stop)/8 + 1
		z = (word&0x7f | word>>1&0x3f80 | word>>2&0x1fc000 | word>>3&0xfe00000) & (1<<(7*uint(k)) - 1)
		at = lo + k
	} else {
		z64, k := binary.Uvarint(to[lo:])
		z, at = uint32(z64), lo+k
	}
	w = int(to[at])
	return v + (int32(z>>1) ^ -int32(z&1)), uint32(1)<<(8*uint(w)) - 1, w, at + 1
}

// gap returns the gap stored at to[at] under mask.
func gap(to []byte, at int, mask uint32) int32 {
	b := to[at : at+4 : at+4]
	return int32((uint32(b[0])|uint32(b[1])<<8|uint32(b[2])<<16|uint32(b[3])<<24)&mask) + 1
}

// AppendRow appends row v to dst and returns the extended slice.
func (c CSR) AppendRow(dst []int32, v int32) []int32 {
	to, lo, hi := c.bytes(v)
	if lo == hi {
		return dst
	}
	x, mask, w, at := head(to, lo, v)
	dst = append(slices.Grow(dst, 1+hi-at), x) // a gap takes a byte or more
	for ; at < hi; at += w {
		x += gap(to, at, mask)
		dst = append(dst, x)
	}
	return dst
}

// Degree returns the length of row v.
func (c CSR) Degree(v int32) int {
	to, lo, hi := c.bytes(v)
	if lo == hi {
		return 0
	}
	for to[lo] >= 0x80 {
		lo++
	}
	return 1 + (hi-lo-2)/int(to[lo+1])
}

// Intersects reports whether row v holds a member of set, decoding no
// further than the first. It is Any with set.Contains, without the call per
// entry: the refiner's sweep runs it on every candidate.
func (c CSR) Intersects(v int32, set *NodeSet) bool {
	to, lo, hi := c.bytes(v)
	if lo == hi {
		return false
	}
	x, mask, w, at := head(to, lo, v)
	for !set.Contains(x) {
		if at >= hi {
			return false
		}
		x += gap(to, at, mask)
		at += w
	}
	return true
}

// Any reports whether pred holds for a target of row v, decoding and testing
// no further than the first it holds for.
func (c CSR) Any(v int32, pred func(w int32) bool) bool {
	to, lo, hi := c.bytes(v)
	if lo == hi {
		return false
	}
	x, mask, w, at := head(to, lo, v)
	for {
		if pred(x) {
			return true
		}
		if at >= hi {
			return false
		}
		x += gap(to, at, mask)
		at += w
	}
}

// Has reports whether row v holds t, decoding no further than t.
func (c CSR) Has(v, t int32) bool {
	to, lo, hi := c.bytes(v)
	if lo == hi {
		return false
	}
	x, mask, w, at := head(to, lo, v)
	for ; x < t && at < hi; at += w {
		x += gap(to, at, mask)
	}
	return x == t
}

// zigzag maps a signed first gap to an unsigned varint payload.
func zigzag(d int32) uint64 { return uint64(uint32(d<<1) ^ uint32(d>>31)) }

// width returns the gap width of a non-empty row.
func width(row []int32) int {
	var m uint32
	for i := 1; i < len(row); i++ {
		m |= uint32(row[i] - row[i-1] - 1)
	}
	return max(1, (bits.Len32(m)+7)/8)
}

// encodedLen returns the bytes row v, given as sorted targets, takes.
func encodedLen(v int32, row []int32) int {
	if len(row) == 0 {
		return 0
	}
	z := zigzag(row[0] - v)
	return (bits.Len64(z|1)+6)/7 + 1 + (len(row)-1)*width(row)
}

// appendEncoded appends the encoding of row v, given as sorted targets, to
// b.
func appendEncoded(b []byte, v int32, row []int32) []byte {
	if len(row) == 0 {
		return b
	}
	w := width(row)
	b = append(binary.AppendUvarint(b, zigzag(row[0]-v)), byte(w))
	for i := 1; i < len(row); i++ {
		g := uint32(row[i] - row[i-1] - 1)
		for k := 0; k < w; k++ {
			b = append(b, byte(g>>(8*k)))
		}
	}
	return b
}

// pagedCSR encodes a flat CSR — row v is to[start[v]:start[v+1]], start
// holding one entry per row plus one — into pages held in one array, whose
// bytes are windows of one exactly sized array. start and to may be
// discarded afterwards.
func pagedCSR(start, to []int32) CSR {
	n := len(start) - 1
	np := (n + pageMask) >> pageBits
	size := np * pad
	for v := 0; v < n; v++ {
		size += encodedLen(int32(v), to[start[v]:start[v+1]])
	}
	pages, _, _ := appendPages(make([]*csrPage, 0, np), make([]csrPage, 0, np), make([]byte, 0, size), start, to)
	return CSR{pages: pages, n: n}
}

// appendPages encodes the flat CSR (start, to) as pages of pageSize rows:
// it appends each page to store and a pointer to it to pages, and its bytes
// to b, and every page is an element of the store and its bytes a window of
// the b it returns — or of an earlier backing array that growth left
// behind, which still holds its data.
func appendPages(pages []*csrPage, store []csrPage, b []byte, start, to []int32) ([]*csrPage, []csrPage, []byte) {
	n := len(start) - 1
	for lo := 0; lo < n; lo += pageSize {
		store = append(store, csrPage{})
		p := &store[len(store)-1]
		t := len(b)
		for v := lo; v < min(lo+pageSize, n); v++ {
			p.off[v-lo] = int32(len(b) - t)
			b = appendEncoded(b, int32(v), to[start[v]:start[v+1]])
		}
		p.off[min(pageSize, n-lo)] = int32(len(b) - t)
		b = append(b, make([]byte, pad)...)
		p.to = b[t:len(b):len(b)]
		pages = append(pages, p)
	}
	return pages, store, b
}

// transpose returns the flat CSR (tstart, tto) of the reverse of the n-row
// flat CSR (start, to), in the storage of the tstart and tto it is handed
// (nil ones allocate): row w lists, ascending, every r whose row holds w,
// once per occurrence.
func transpose(tstart, tto []int32, n int, start, to []int32) ([]int32, []int32) {
	tstart = slices.Grow(tstart[:0], n+1)[:n+1]
	clear(tstart)
	for _, w := range to {
		tstart[w+1]++
	}
	for i := 0; i < n; i++ {
		tstart[i+1] += tstart[i]
	}
	tto = slices.Grow(tto[:0], len(to))[:len(to)]
	for r := 0; r < n; r++ {
		for _, w := range to[start[r]:start[r+1]] {
			tto[tstart[w]] = int32(r)
			tstart[w]++
		}
	}
	// Each tstart[w] now holds where row w ends, which is where row w+1
	// starts.
	copy(tstart[1:], tstart[:n])
	tstart[0] = 0
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
// rows it replaces, decoded; Own reads a row as the edit has it. Freeze
// copies the predecessor's page directory, rebuilds each page a replaced row
// lives in, once, and shares every other page with the predecessor, which is
// never written. An abandoned edit leaves nothing behind. Not safe for
// concurrent use.
type CSREdit struct {
	base CSR
	rows map[int32][]int32 // replaced and appended rows, owned by the edit
	n    int
}

// Own returns row v as a slice of the edit's own, decoding the predecessor's
// on first use. The caller may write it in place, and hands a row that grew
// or shrank back through Set.
func (e *CSREdit) Own(v int32) []int32 {
	row, ok := e.rows[v]
	if !ok {
		row = e.base.AppendRow(nil, v)
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

// Replaced lists the rows the edit replaced or appended, ascending.
func (e *CSREdit) Replaced() []int32 {
	rows := make([]int32, 0, len(e.rows))
	for v := range e.rows {
		rows = append(rows, v)
	}
	slices.Sort(rows)
	return rows
}

// Freeze returns the edited CSR and the number of the predecessor's pages
// it rebuilt; a page appended rows opened is built, not counted. The edit
// must not be used afterwards.
func (e *CSREdit) Freeze() (CSR, int) {
	if len(e.rows) == 0 {
		return e.base, 0
	}
	pages := make([]*csrPage, (e.n+pageMask)>>pageBits)
	copy(pages, e.base.pages)
	rebuilt := 0
	for rows := e.Replaced(); len(rows) > 0; {
		p := int(rows[0] >> pageBits)
		k := 1
		for k < len(rows) && int(rows[k]>>pageBits) == p {
			k++
		}
		pages[p] = e.page(p, rows[:k])
		rows = rows[k:]
		if p < len(e.base.pages) {
			rebuilt++
		}
	}
	return CSR{pages: pages, n: e.n}, rebuilt
}

// page builds page p, whose replaced rows are the ascending rows: each run
// of rows between two of them is one byte copy from the predecessor's page,
// its offsets rebased (copyRows), and only the replaced rows are encoded.
// Every row of a run lies in the predecessor, because every appended row is
// replaced.
func (e *CSREdit) page(p int, rows []int32) *csrPage {
	lo := int32(p << pageBits)
	hi := min(lo+pageSize, int32(e.n))
	base := &csrPage{}
	if p < len(e.base.pages) {
		base = e.base.pages[p]
	}
	size, v := pad, lo
	for _, r := range rows {
		if v < r {
			size += int(base.off[r-lo] - base.off[v-lo])
		}
		size += encodedLen(r, e.rows[r])
		v = r + 1
	}
	if v < hi {
		size += int(base.off[hi-lo] - base.off[v-lo])
	}

	pg := &csrPage{}
	to := make([]byte, 0, size)
	v = lo
	for _, r := range rows {
		to = pg.copyRows(to, base, v-lo, r-lo)
		pg.off[r-lo] = int32(len(to))
		to = appendEncoded(to, r, e.rows[r])
		v = r + 1
	}
	to = pg.copyRows(to, base, v-lo, hi-lo)
	pg.off[hi-lo] = int32(len(to))
	pg.to = to[:len(to)+pad]
	return pg
}

// copyRows appends the rows [a, b) of base, page-relative, to to, which
// holds pg's bytes so far, as one byte copy, and gives them their offsets in
// pg; it returns the extended to.
func (pg *csrPage) copyRows(to []byte, base *csrPage, a, b int32) []byte {
	if a == b {
		return to
	}
	shift := int32(len(to)) - base.off[a]
	for i := a; i < b; i++ {
		pg.off[i] = base.off[i] + shift
	}
	return append(to, base.to[base.off[a]:base.off[b]]...)
}
