package plan

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
)

// CacheKey composes the full cache key of one query execution: the
// canonical pattern key, the effective ball radius (explicit override or
// pattern diameter), and the engine's option bits (minimize-query, dual
// filter, connectivity pruning). Radius and mode are part of the key
// because they change the served bytes, not just the cost.
func CacheKey(canon string, radius int, mode int) string {
	return fmt.Sprintf("%s|r%d|m%d", canon, radius, mode)
}

// Cached is an immutable view of one cache entry, safe to read after the
// cache lock is released: the maps and slices behind it are replaced, never
// mutated, by later cache operations.
type Cached struct {
	// Pattern is the pattern the entry was computed for, in its original
	// submitted numbering; InvPerm maps canonical positions back to its
	// node ids, so an isomorphic query's relation keys can be translated.
	Pattern *graph.Graph
	InvPerm []int32
	// Radius is the effective ball radius the outcomes were evaluated at.
	Radius int
	// Version is the store version the outcomes are valid for.
	Version uint64
	// Centers (ascending) and Outcomes are the pre-dedup per-center match
	// outcomes: every center whose ball matched, with its maximum perfect
	// subgraph. Pre-dedup matters — dedup discards duplicate-producing
	// centers that a contained query may still need.
	Centers  []int32
	Outcomes []*core.PerfectSubgraph
	// Result is the assembled (deduped, sorted, expanded) result as Match
	// returned it.
	Result *core.Result
	// Pending (ascending) lists centers whose outcomes may be stale:
	// update batches touched their ≤ Radius-hop neighborhoods after
	// Version. Empty for a clean entry.
	Pending []int32
}

type entry struct {
	key      string
	pat      *graph.Graph
	invPerm  []int32
	radius   int
	version  uint64
	nodes    int    // data-graph size at store time, bounds pending growth
	labelKey string // sorted distinct label names, the containment prefilter
	centers  []int32
	outcomes []*core.PerfectSubgraph
	result   *core.Result
	pending  []int32
	elem     *list.Element
}

func (e *entry) view() *Cached {
	return &Cached{
		Pattern: e.pat, InvPerm: e.invPerm, Radius: e.radius, Version: e.version,
		Centers: e.centers, Outcomes: e.outcomes, Result: e.result, Pending: e.pending,
	}
}

// Cache is the match-result cache: canonical-key entries with LRU bounds
// and version-aware surgical invalidation. All methods are safe for
// concurrent use; returned Cached views are immutable snapshots.
type Cache struct {
	mu      sync.Mutex
	max     int
	current uint64 // latest version invalidate has seen
	entries map[string]*entry
	lru     *list.List // front = most recently used
}

func newCache(max int) *Cache {
	return &Cache{max: max, entries: make(map[string]*entry), lru: list.New()}
}

// Lookup outcomes, as surfaced in query stats and metrics.
const (
	OutcomeHit       = "hit"
	OutcomeRefresh   = "refresh"
	OutcomeContained = "contained"
	OutcomeMiss      = "miss"
)

// Get looks up the exact key for a query running at the given store
// version. It returns (view, OutcomeHit) for a clean same-version entry,
// (view, OutcomeRefresh) for an entry that needs its Pending centers
// re-evaluated (possibly none, when the entry predates the query's version
// but nothing within its radius changed), and (nil, OutcomeMiss) when
// there is no usable entry — including an entry from a *newer* version
// than the query's snapshot, which must not travel back in time.
func (c *Cache) Get(key string, version uint64) (*Cached, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.version > version {
		return nil, OutcomeMiss
	}
	c.lru.MoveToFront(e.elem)
	if e.version == version && len(e.pending) == 0 {
		cacheHits.Inc()
		return e.view(), OutcomeHit
	}
	cacheRefreshes.Inc()
	return e.view(), OutcomeRefresh
}

// NoteMiss records a true cache miss. Get does not count misses itself
// because an exact-key miss may still become a containment hit; the engine
// calls this once the outcome is final.
func (c *Cache) NoteMiss() { cacheMisses.Inc() }

// FindContaining scans for a clean entry whose pattern contains q (see
// ContainedIn) at a radius ≥ the query's, valid at the query's version.
// Among eligible entries it returns the one with the fewest outcome
// centers — the tightest superset. Returns nil when none qualifies; the
// caller then evaluates from scratch.
func (c *Cache) FindContaining(q *graph.Graph, radius int, version uint64) *Cached {
	lk := labelKey(q)
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *entry
	for _, e := range c.entries {
		if e.version > version || len(e.pending) > 0 || e.radius < radius {
			continue
		}
		if e.labelKey != lk {
			continue // a surjective hom forces equal label-name sets
		}
		if best != nil && len(e.centers) >= len(best.centers) {
			continue
		}
		if ContainedIn(q, e.pat) {
			best = e
		}
	}
	if best == nil {
		return nil
	}
	c.lru.MoveToFront(best.elem)
	cacheContained.Inc()
	return best.view()
}

// Put stores a completed execution. centers must be ascending with
// outcomes aligned; result must be the assembled Result as served. The
// store is rejected (sound, just unprofitable) when an invalidation for a
// newer version has already begun — the new entry could not receive that
// batch's pending marks.
func (c *Cache) Put(key string, pat *graph.Graph, invPerm []int32, radius int,
	version uint64, nodes int, centers []int32, outcomes []*core.PerfectSubgraph,
	result *core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if version < c.current {
		cacheRejected.Inc()
		return
	}
	e := c.entries[key]
	if e == nil {
		e = &entry{key: key}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		for c.lru.Len() > c.max {
			oldest := c.lru.Back()
			c.removeLocked(oldest.Value.(*entry))
			cacheEvictions.Inc()
		}
	} else {
		c.lru.MoveToFront(e.elem)
	}
	e.pat, e.invPerm, e.radius = pat, invPerm, radius
	e.version, e.nodes = version, nodes
	e.labelKey = labelKey(pat)
	e.centers, e.outcomes, e.result = centers, outcomes, result
	e.pending = nil
	cacheEntries.Set(int64(len(c.entries)))
}

// invalidate marks the dirty centers of an about-to-publish version as
// pending on every entry, dropping entries whose accumulated pending set
// makes repair no cheaper than a fresh evaluation. dirtyFor is called at
// most once per distinct entry radius and its slices are kept: an entry
// with nothing pending adopts the batch's slice as it is, and entries that
// share one pending slice (they adopted it from an earlier batch) share one
// merge, so a batch merges once per distinct (radius, pending set), not
// once per entry. Pending slices are never written after they are built —
// readers hold views of them.
func (c *Cache) invalidate(version uint64, dirtyFor func(radius int) []int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if version > c.current {
		c.current = version
	}
	if len(c.entries) == 0 {
		return
	}
	// An immutable slice is identified by where it starts and how long it is.
	type pendingID struct {
		radius int
		first  *int32
		n      int
	}
	byRadius := make(map[int][]int32)
	merges := make(map[pendingID][]int32)
	for _, e := range c.entries {
		dirty, ok := byRadius[e.radius]
		if !ok {
			dirty = dirtyFor(e.radius)
			byRadius[e.radius] = dirty
		}
		if len(dirty) == 0 {
			continue
		}
		pending := dirty
		if len(e.pending) > 0 {
			id := pendingID{e.radius, &e.pending[0], len(e.pending)}
			if pending, ok = merges[id]; !ok {
				pending = mergeSorted(e.pending, dirty)
				merges[id] = pending
			}
		}
		if e.nodes > 0 && len(pending)*2 > e.nodes {
			c.removeLocked(e)
			cacheDropped.Inc()
			continue
		}
		e.pending = pending
		cacheInvalidated.Inc()
	}
	cacheEntries.Set(int64(len(c.entries)))
}

// Len reports the number of entries held.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *Cache) removeLocked(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
}

// mergeSorted unions two ascending slices into a fresh slice — fresh
// because readers, and other entries, may hold the old pending slice.
func mergeSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// labelKey is the containment prefilter: the sorted distinct label names
// of a pattern. Patterns related by a surjective label-preserving
// homomorphism have equal label-name sets.
func labelKey(q *graph.Graph) string {
	names := make([]string, 0, q.NumNodes())
	seen := make(map[string]bool, q.NumNodes())
	for v := int32(0); v < int32(q.NumNodes()); v++ {
		if n := q.LabelName(v); !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return strings.Join(names, "\x00")
}
