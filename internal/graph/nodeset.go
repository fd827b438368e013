package graph

import "math/bits"

// NodeSet is a bitmap-backed set of node identifiers in [0, capacity).
// Match relations (pattern node → set of data nodes) are stored as one
// NodeSet per pattern node, so membership tests during simulation
// refinement are O(1) and iteration is word-at-a-time.
type NodeSet struct {
	words []uint64
	count int
}

// NewNodeSet returns an empty set able to hold node ids in [0, capacity).
func NewNodeSet(capacity int) *NodeSet {
	return &NodeSet{words: make([]uint64, (capacity+63)/64)}
}

// Capacity returns the exclusive upper bound of storable node ids.
func (s *NodeSet) Capacity() int { return len(s.words) * 64 }

// Len returns the number of nodes in the set.
func (s *NodeSet) Len() int { return s.count }

// Empty reports whether the set has no members.
func (s *NodeSet) Empty() bool { return s.count == 0 }

// Contains reports whether v is in the set.
func (s *NodeSet) Contains(v int32) bool {
	w := int(v) >> 6
	if w < 0 || w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<(uint(v)&63)) != 0
}

// Add inserts v and reports whether the set changed.
func (s *NodeSet) Add(v int32) bool {
	w, b := int(v)>>6, uint64(1)<<(uint(v)&63)
	if s.words[w]&b != 0 {
		return false
	}
	s.words[w] |= b
	s.count++
	return true
}

// Remove deletes v and reports whether the set changed.
func (s *NodeSet) Remove(v int32) bool {
	w, b := int(v)>>6, uint64(1)<<(uint(v)&63)
	if s.words[w]&b == 0 {
		return false
	}
	s.words[w] &^= b
	s.count--
	return true
}

// Clone returns an independent copy of the set.
func (s *NodeSet) Clone() *NodeSet {
	words := make([]uint64, len(s.words))
	copy(words, s.words)
	return &NodeSet{words: words, count: s.count}
}

// Clear removes all members, keeping capacity.
func (s *NodeSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.count = 0
}

// Reset empties s and re-bounds its capacity, reusing the existing backing
// storage when it suffices. Scratch-based evaluators (internal/exec) reset
// pooled sets per ball instead of allocating fresh ones. It reports whether
// the storage had to grow.
func (s *NodeSet) Reset(capacity int) (grew bool) {
	n := (capacity + 63) / 64
	if cap(s.words) < n {
		s.words = make([]uint64, n)
		grew = true
	} else {
		s.words = s.words[:n]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.count = 0
	return grew
}

// Equal reports whether s and t contain exactly the same nodes.
func (s *NodeSet) Equal(t *NodeSet) bool {
	if s.count != t.count {
		return false
	}
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	for i := n; i < len(s.words); i++ {
		if s.words[i] != 0 {
			return false
		}
	}
	for i := n; i < len(t.words); i++ {
		if t.words[i] != 0 {
			return false
		}
	}
	return true
}

// IntersectWith removes from s every node not in t and reports whether s
// changed.
func (s *NodeSet) IntersectWith(t *NodeSet) bool {
	changed := false
	for i := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		nw := s.words[i] & tw
		if nw != s.words[i] {
			changed = true
			s.count -= bits.OnesCount64(s.words[i] &^ nw)
			s.words[i] = nw
		}
	}
	return changed
}

// UnionWith adds every node of t to s.
func (s *NodeSet) UnionWith(t *NodeSet) {
	for i := range t.words {
		if t.words[i] == 0 {
			continue
		}
		added := t.words[i] &^ s.words[i]
		if added != 0 {
			s.count += bits.OnesCount64(added)
			s.words[i] |= t.words[i]
		}
	}
}

// ForEach calls fn for every node in ascending order. fn must not mutate s.
func (s *NodeSet) ForEach(fn func(v int32)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(int32(wi*64 + b))
			w &^= 1 << uint(b)
		}
	}
}

// Next returns the smallest member that is at least v, or -1 when there is
// none. for v := s.Next(0); v >= 0; v = s.Next(v + 1) visits the members in
// ascending order and, unlike ForEach, may stop early or remove the member it
// is visiting.
func (s *NodeSet) Next(v int32) int32 {
	wi := int(v) >> 6
	if wi >= len(s.words) {
		return -1
	}
	if w := s.words[wi] >> (uint(v) & 63); w != 0 {
		return v + int32(bits.TrailingZeros64(w))
	}
	for wi++; wi < len(s.words); wi++ {
		if w := s.words[wi]; w != 0 {
			return int32(wi*64 + bits.TrailingZeros64(w))
		}
	}
	return -1
}

// Slice returns the members in ascending order.
func (s *NodeSet) Slice() []int32 {
	return s.AppendTo(make([]int32, 0, s.count))
}

// AppendTo appends the members to dst in ascending order.
func (s *NodeSet) AppendTo(dst []int32) []int32 {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, int32(wi*64+b))
			w &^= 1 << uint(b)
		}
	}
	return dst
}

// First returns the smallest member, or -1 if the set is empty.
func (s *NodeSet) First() int32 {
	for wi, w := range s.words {
		if w != 0 {
			return int32(wi*64 + bits.TrailingZeros64(w))
		}
	}
	return -1
}

// SetOf builds a NodeSet with the given capacity containing vs.
func SetOf(capacity int, vs ...int32) *NodeSet {
	s := NewNodeSet(capacity)
	for _, v := range vs {
		s.Add(v)
	}
	return s
}
