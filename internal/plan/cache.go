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
// mutated, by later cache operations. An entry is valid at exactly the
// version it was computed on; a newer version empties the cache.
type Cached struct {
	// Pattern is the pattern the entry was computed for, in its original
	// submitted numbering; InvPerm maps canonical positions back to its
	// node ids, so an isomorphic query's relation keys can be translated.
	Pattern *graph.Graph
	InvPerm []int32
	// Radius is the effective ball radius the entry was evaluated at.
	Radius int
	// Centers (ascending) are the pre-dedup matching centers: every center
	// whose ball matched. Pre-dedup matters — dedup discards
	// duplicate-producing centers that a contained query may still need.
	Centers []int32
	// Result is the assembled (deduped, sorted, expanded) result as Match
	// returned it.
	Result *core.Result
	// Pending is always empty: an entry never outlives its version, so no
	// center of it is ever stale.
	//
	// Deprecated: kept only because bench/ names it.
	Pending []int32
}

type entry struct {
	key      string
	pat      *graph.Graph
	invPerm  []int32
	radius   int
	labelKey string // sorted distinct label names, the containment prefilter
	centers  []int32
	result   *core.Result
	elem     *list.Element
}

func (e *entry) view() *Cached {
	return &Cached{Pattern: e.pat, InvPerm: e.invPerm, Radius: e.radius, Centers: e.centers, Result: e.result}
}

// Cache is the match-result cache: canonical-key entries with an LRU bound,
// all computed on one store version. A lookup or store at a newer version
// empties the cache and moves it to that version; one at an older version
// misses or is rejected. All methods are safe for concurrent use; returned
// Cached views are immutable snapshots.
type Cache struct {
	mu      sync.Mutex
	max     int
	version uint64 // the version every held entry was computed on
	entries map[string]*entry
	lru     *list.List // front = most recently used
}

func newCache(max int) *Cache {
	return &Cache{max: max, entries: make(map[string]*entry), lru: list.New()}
}

// Lookup outcomes, as surfaced in query stats and metrics.
const (
	OutcomeHit       = "hit"
	OutcomeContained = "contained"
	OutcomeMiss      = "miss"
)

// OutcomeRefresh is never produced: there is no stale entry to repair.
//
// Deprecated: kept only because bench/ names it.
const OutcomeRefresh = "refresh"

// atLocked moves the cache to version when it is newer than the entries
// held, dropping them all, and reports whether version is the cache's own.
// Callers hold mu.
func (c *Cache) atLocked(version uint64) bool {
	if version > c.version {
		cacheEntries.Add(-int64(len(c.entries)))
		clear(c.entries)
		c.lru.Init()
		c.version = version
	}
	return version == c.version
}

// Get looks up the exact key for a query running at the given store
// version: (view, OutcomeHit) for an entry computed on that version,
// (nil, OutcomeMiss) otherwise — including for a query on an older version
// than the cache's, whose entries must not travel back in time.
func (c *Cache) Get(key string, version uint64) (*Cached, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.atLocked(version) {
		return nil, OutcomeMiss
	}
	e := c.entries[key]
	if e == nil {
		return nil, OutcomeMiss
	}
	c.lru.MoveToFront(e.elem)
	cacheHits.Inc()
	return e.view(), OutcomeHit
}

// NoteMiss records a true cache miss. Get does not count misses itself
// because an exact-key miss may still become a containment hit; the engine
// calls this once the outcome is final.
func (c *Cache) NoteMiss() { cacheMisses.Inc() }

// FindContaining scans the query version's entries for one whose pattern
// contains q (see ContainedIn) at a radius ≥ the query's. Among eligible
// entries it returns the one with the fewest matching centers — the
// tightest superset. Returns nil when none qualifies; the caller then
// evaluates from scratch.
func (c *Cache) FindContaining(q *graph.Graph, radius int, version uint64) *Cached {
	lk := labelKey(q)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.atLocked(version) {
		return nil
	}
	var best *entry
	for _, e := range c.entries {
		if e.radius < radius {
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

// Put stores a completed execution at the version it ran on. centers must
// be the ascending pre-dedup matching centers; result must be the assembled
// Result as served. A store at an older version than the cache's is
// rejected: nothing at that version can be looked up any more.
func (c *Cache) Put(key string, pat *graph.Graph, invPerm []int32, radius int,
	version uint64, centers []int32, result *core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.atLocked(version) {
		cacheRejected.Inc()
		return
	}
	e := c.entries[key]
	if e == nil {
		e = &entry{key: key}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		cacheEntries.Inc()
		for c.lru.Len() > c.max {
			oldest := c.lru.Remove(c.lru.Back()).(*entry)
			delete(c.entries, oldest.key)
			cacheEntries.Dec()
			cacheEvictions.Inc()
		}
	} else {
		c.lru.MoveToFront(e.elem)
	}
	e.pat, e.invPerm, e.radius = pat, invPerm, radius
	e.labelKey = labelKey(pat)
	e.centers, e.result = centers, result
}

// Len reports the number of entries held.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
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
