package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNodeSetBasics(t *testing.T) {
	s := NewNodeSet(200)
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	if !s.Add(5) || !s.Add(64) || !s.Add(199) {
		t.Fatal("Add of fresh element returned false")
	}
	if s.Add(5) {
		t.Fatal("Add of existing element returned true")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !s.Contains(64) || s.Contains(63) {
		t.Fatal("Contains wrong")
	}
	if !s.Remove(64) || s.Remove(64) {
		t.Fatal("Remove semantics wrong")
	}
	if got := s.Slice(); !reflect.DeepEqual(got, []int32{5, 199}) {
		t.Fatalf("Slice = %v, want [5 199]", got)
	}
	if s.First() != 5 {
		t.Fatalf("First = %d, want 5", s.First())
	}
	s.Clear()
	if !s.Empty() || s.First() != -1 {
		t.Fatal("Clear failed")
	}
}

func TestNodeSetContainsOutOfRange(t *testing.T) {
	s := NewNodeSet(10)
	if s.Contains(1000) || s.Contains(-3) {
		t.Fatal("out-of-range Contains should be false")
	}
}

func TestNodeSetCloneIndependence(t *testing.T) {
	s := SetOf(100, 1, 2, 3)
	c := s.Clone()
	c.Remove(2)
	if !s.Contains(2) {
		t.Fatal("Clone not independent")
	}
	if !s.Equal(SetOf(100, 1, 2, 3)) {
		t.Fatal("source mutated")
	}
}

func TestNodeSetEqualDifferentCapacities(t *testing.T) {
	a := SetOf(64, 1, 5)
	b := SetOf(1024, 1, 5)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("sets with same members but different capacities should be Equal")
	}
	b.Add(900)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("sets differing in a high bit should not be Equal")
	}
}

func TestNodeSetIntersectUnion(t *testing.T) {
	a := SetOf(256, 1, 2, 3, 100, 200)
	b := SetOf(256, 2, 3, 4, 200)
	c := a.Clone()
	if changed := c.IntersectWith(b); !changed {
		t.Fatal("IntersectWith should report change")
	}
	if got := c.Slice(); !reflect.DeepEqual(got, []int32{2, 3, 200}) {
		t.Fatalf("intersection = %v", got)
	}
	if c.IntersectWith(b) {
		t.Fatal("second IntersectWith should be a no-op")
	}
	u := a.Clone()
	u.UnionWith(b)
	if got := u.Slice(); !reflect.DeepEqual(got, []int32{1, 2, 3, 4, 100, 200}) {
		t.Fatalf("union = %v", got)
	}
	if u.Len() != 6 {
		t.Fatalf("union Len = %d, want 6", u.Len())
	}
}

func TestNodeSetForEachOrder(t *testing.T) {
	s := SetOf(300, 250, 0, 63, 64, 65)
	var got []int32
	s.ForEach(func(v int32) { got = append(got, v) })
	if !reflect.DeepEqual(got, []int32{0, 63, 64, 65, 250}) {
		t.Fatalf("ForEach order = %v", got)
	}
	// Next walks the same members, survives the removal of the one it is
	// at, and answers -1 past the last member and past the capacity.
	got = nil
	for v := s.Next(0); v >= 0; v = s.Next(v + 1) {
		got = append(got, v)
		s.Remove(v)
	}
	if !reflect.DeepEqual(got, []int32{0, 63, 64, 65, 250}) || !s.Empty() {
		t.Fatalf("Next order = %v, %d left", got, s.Len())
	}
	s.Add(64)
	if s.Next(64) != 64 || s.Next(65) != -1 || s.Next(1<<20) != -1 {
		t.Fatalf("Next(64), Next(65), Next(1<<20) = %d, %d, %d", s.Next(64), s.Next(65), s.Next(1<<20))
	}
}

// TestNodeSetQuickAgainstMap cross-checks NodeSet against map[int32]bool
// under random operation sequences.
func TestNodeSetQuickAgainstMap(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		const cap = 512
		rng := rand.New(rand.NewSource(seed))
		s := NewNodeSet(cap)
		m := map[int32]bool{}
		for _, op := range ops {
			v := int32(op % cap)
			switch rng.Intn(3) {
			case 0:
				if s.Add(v) == m[v] { // Add returns true iff it was absent
					return false
				}
				m[v] = true
			case 1:
				if s.Remove(v) != m[v] {
					return false
				}
				delete(m, v)
			case 2:
				if s.Contains(v) != m[v] {
					return false
				}
			}
		}
		if s.Len() != len(m) {
			return false
		}
		for v := range m {
			if !s.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
