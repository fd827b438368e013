package plan

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestCacheInvalidateSharesPending: an entry with nothing pending adopts the
// batch's dirty slice, and entries holding one pending slice get one merged
// successor between them — while an entry stored in between keeps its own.
func TestCacheInvalidateSharesPending(t *testing.T) {
	c := newCache(8)
	q := p(t, "node a A\nnode b B\nedge a b")
	res := &core.Result{}
	for _, key := range []string{"k1", "k2"} {
		c.Put(key, q, []int32{0, 1}, 1, 0, 100, nil, nil, res)
	}
	first := []int32{3, 5}
	c.invalidate(1, func(int) []int32 { return first })
	c.Put("k3", q, []int32{0, 1}, 1, 1, 100, nil, nil, res)
	c.invalidate(2, func(int) []int32 { return []int32{4, 5} })

	pending := func(key string) []int32 {
		view, _ := c.Get(key, 2)
		return view.Pending
	}
	if p1, p2 := pending("k1"), pending("k2"); !slices.Equal(p1, []int32{3, 4, 5}) || &p1[0] != &p2[0] {
		t.Fatalf("k1 %v and k2 %v should share one merged slice", p1, p2)
	}
	if p3 := pending("k3"); !slices.Equal(p3, []int32{4, 5}) {
		t.Fatalf("k3 pending %v, want the second batch only", p3)
	}
	if !slices.Equal(first, []int32{3, 5}) {
		t.Fatalf("an adopted dirty slice was written: %v", first)
	}
}

// BenchmarkCacheInvalidate is the cache's side of an update batch on the
// repeat-churn shape: 64 entries stored four per batch across 16 batches,
// each batch marking ≈3 000 dirty centers of a 100k-node graph pending. An
// entry refreshed at a different batch from the others holds a pending list
// of its own, so every batch re-merges every distinct list it has
// accumulated: B/op is O(Σ pending), not O(dirty) — the baseline for making
// invalidation cost its batch (ROADMAP, "The cache's side of an update").
func BenchmarkCacheInvalidate(b *testing.B) {
	const entries, batches, dirty, nodes = 64, 16, 3000, 100000
	rng := rand.New(rand.NewSource(1))
	sets := make([][]int32, batches)
	for k := range sets {
		seen := make(map[int32]bool, dirty)
		for len(seen) < dirty {
			seen[rng.Int31n(nodes)] = true
		}
		for v := range seen {
			sets[k] = append(sets[k], v)
		}
		slices.Sort(sets[k])
	}
	q := p(b, "node a A\nnode b B\nedge a b")
	res := &core.Result{}
	keys := make([]string, entries)
	for i := range keys {
		keys[i] = CacheKey(string(rune('a'+i%26))+string(rune('a'+i/26)), 1, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := newCache(128)
		for k, set := range sets {
			for _, key := range keys[k*entries/batches : (k+1)*entries/batches] {
				c.Put(key, q, nil, 1, uint64(k), nodes, nil, nil, res)
			}
			c.invalidate(uint64(k+1), func(int) []int32 { return set })
		}
	}
}
