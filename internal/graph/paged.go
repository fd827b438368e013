package graph

// Per-node arrays that cross live-store versions are paged: a version that
// follows another by one update batch shares every page the batch did not
// write and copies the rest, so what a version allocates follows its batch
// and not |V|. A page of 512 row headers is 12 KB.
const (
	pageBits = 9
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Paged is an immutable array of T behind a page table. Every page holds
// pageSize elements except the last, which holds the remainder. The zero
// value is empty. Copies share everything; derive a changed array through
// Edit.
type Paged[T any] struct {
	pages [][]T
	n     int
}

// PagedOf returns flat as a paged array whose pages are windows of flat:
// nothing is copied, and flat must not be written afterwards.
func PagedOf[T any](flat []T) Paged[T] {
	return Paged[T]{pages: pageViews(nil, flat), n: len(flat)}
}

// pageViews appends to table one window of flat per page. The windows are
// capped where they end, so an append to one can never run into the next.
func pageViews[T any](table [][]T, flat []T) [][]T {
	for lo := 0; lo < len(flat); lo += pageSize {
		hi := min(lo+pageSize, len(flat))
		table = append(table, flat[lo:hi:hi])
	}
	return table
}

// Len returns the number of elements.
func (p Paged[T]) Len() int { return p.n }

// At returns element i.
func (p Paged[T]) At(i int32) T { return p.pages[i>>pageBits][i&pageMask] }

// Edit starts a changed copy of p. It costs nothing until the first write.
func (p Paged[T]) Edit() *PagedEdit[T] { return &PagedEdit[T]{Paged: p} }

// PagedEdit is a Paged under construction from a predecessor: reads see the
// predecessor's elements until they are overwritten, the first write copies
// the page table, and the first write into a page copies that page. Which
// pages an edit owns is its own knowledge and ends with it — once Freeze has
// handed the array to readers, the next edit owns nothing, whoever built the
// pages. The predecessor is never written. Not safe for concurrent use.
type PagedEdit[T any] struct {
	Paged[T]
	owned  []bool // per page; nil until the page table is this edit's own
	copied int
}

// own makes page p writable and returns it.
func (e *PagedEdit[T]) own(p int) []T {
	if e.owned == nil {
		// Room for one more page, so a batch that adds a few nodes across a
		// page boundary does not copy the table twice.
		e.pages = append(make([][]T, 0, len(e.pages)+1), e.pages...)
		e.owned = make([]bool, len(e.pages), len(e.pages)+1)
	}
	if p == len(e.pages) {
		e.pages = append(e.pages, make([]T, 0, pageSize))
		e.owned = append(e.owned, true)
	}
	if !e.owned[p] {
		e.pages[p] = append(make([]T, 0, pageSize), e.pages[p]...)
		e.owned[p] = true
		e.copied++
	}
	return e.pages[p]
}

// Set overwrites element i.
func (e *PagedEdit[T]) Set(i int32, x T) { e.own(int(i >> pageBits))[i&pageMask] = x }

// Append adds one element at index Len().
func (e *PagedEdit[T]) Append(x T) {
	p := e.n >> pageBits
	page := append(e.own(p), x) // own may replace the table: index it afterwards
	e.pages[p] = page
	e.n++
}

// Copied returns how many of the predecessor's pages the edit has copied.
func (e *PagedEdit[T]) Copied() int { return e.copied }

// Freeze returns the edited array. The edit must not be written afterwards.
func (e *PagedEdit[T]) Freeze() Paged[T] { return e.Paged }
