package obs

// ring is a fixed-size overwrite-oldest buffer: the flight recorder's recent
// and slow queries and the tracer's kept traces. The owner serialises access.
type ring[T any] struct {
	buf  []T
	next int // slot the next push lands in
	n    int // values held, up to len(buf)
}

func newRing[T any](size int) ring[T] { return ring[T]{buf: make([]T, size)} }

func (r *ring[T]) push(v T) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// at returns the i-th newest value held, 0 ≤ i < n.
func (r *ring[T]) at(i int) T {
	return r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
}

// snapshot copies the held values, newest first.
func (r *ring[T]) snapshot() []T {
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.at(i)
	}
	return out
}
