package obs

import (
	"fmt"
	"testing"
)

// TestRingWrap: the ring holds up to its size, overwrites oldest-first, and
// reads newest-first through at and snapshot alike.
func TestRingWrap(t *testing.T) {
	r := newRing[int](3)
	if got := r.snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for v := 1; v <= 7; v++ {
		r.push(v)
		want := []int{}
		for w := v; w > 0 && w > v-3; w-- {
			want = append(want, w)
		}
		if got := r.snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after pushing 1..%d: snapshot %v, want %v", v, got, want)
		}
		for i, w := range want {
			if got := r.at(i); got != w {
				t.Fatalf("after pushing 1..%d: at(%d) = %d, want %d", v, i, got, w)
			}
		}
	}
}
