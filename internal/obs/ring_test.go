package obs

import (
	"testing"
)

// TestRingWrap: the ring holds up to its size, overwrites oldest-first,
// reads newest-first through at, and a pushed value's slot holds it until
// the ring wraps over it.
func TestRingWrap(t *testing.T) {
	r := newRing[int](3)
	if r.n != 0 {
		t.Fatalf("empty ring holds %d", r.n)
	}
	var slots []*int
	for v := 1; v <= 7; v++ {
		slots = append(slots, r.push(v))
		want := []int{}
		for w := v; w > 0 && w > v-3; w-- {
			want = append(want, w)
		}
		if r.n != len(want) {
			t.Fatalf("after pushing 1..%d: holds %d, want %d", v, r.n, len(want))
		}
		for i, w := range want {
			if got := *r.at(i); got != w {
				t.Fatalf("after pushing 1..%d: at(%d) = %d, want %d", v, i, got, w)
			}
		}
	}
	for i, slot := range slots {
		v := i + 1
		if live := v > 4; live != (*slot == v) {
			t.Fatalf("slot of %d holds %d after 7 pushes", v, *slot)
		}
	}
}
