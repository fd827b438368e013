package obs

// ring is a fixed-size overwrite-oldest buffer: the recorder's finished
// requests. The owner serialises access.
type ring[T any] struct {
	buf  []T
	next int // slot the next push lands in
	n    int // values held, up to len(buf)
}

func newRing[T any](size int) ring[T] { return ring[T]{buf: make([]T, size)} }

// push stores v over the oldest value once the ring is full and returns its
// slot, which stays v's until len(buf) later pushes overwrite it.
func (r *ring[T]) push(v T) *T {
	slot := &r.buf[r.next]
	*slot = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	return slot
}

// at returns the slot of the i-th newest value held, 0 ≤ i < n.
func (r *ring[T]) at(i int) *T {
	return &r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
}
