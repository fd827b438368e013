package plan

import (
	"container/list"
	"fmt"
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
// cache lock is released: the slices behind it are replaced, never mutated,
// by later cache operations. An entry is valid at exactly the version it was
// computed on; a newer version empties the cache.
type Cached struct {
	// InvPerm maps canonical positions back to the node ids of the pattern
	// the entry was computed for, so an isomorphic query's relation keys can
	// be translated.
	InvPerm []int32
	// Result is the assembled (deduped, sorted, expanded) result as Match
	// returned it.
	Result *core.Result
	// Centers is always empty: no lookup restricts an evaluation to a
	// cached entry's centers.
	//
	// Deprecated: kept only because bench/ names it.
	Centers []int32
	// Pending is always empty: an entry never outlives its version, so no
	// center of it is ever stale.
	//
	// Deprecated: kept only because bench/ names it.
	Pending []int32
}

type entry struct {
	key     string
	invPerm []int32
	result  *core.Result
	elem    *list.Element
}

func (e *entry) view() *Cached {
	return &Cached{InvPerm: e.invPerm, Result: e.result}
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
	OutcomeHit  = "hit"
	OutcomeMiss = "miss"
)

// OutcomeContained is never produced: the cache answers exact repeats only.
//
// Deprecated: kept only because bench/ names it.
const OutcomeContained = "contained"

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

// NoteMiss records a cache miss. Get does not count misses itself, so a
// lookup made only to inspect the cache moves no counter; the engine calls
// this for each query it evaluates.
func (c *Cache) NoteMiss() { cacheMisses.Inc() }

// FindContaining always returns nil: the cache answers exact repeats only,
// so the caller evaluates from scratch.
//
// Deprecated: kept only because bench/ names it.
func (c *Cache) FindContaining(q *graph.Graph, radius int, version uint64) *Cached {
	return nil
}

// Put stores a completed execution at the version it ran on: invPerm maps
// canonical positions to the pattern's node ids, and result is the
// assembled Result as served. A store at an older version than the cache's
// is rejected: nothing at that version can be looked up any more.
func (c *Cache) Put(key string, invPerm []int32, version uint64, result *core.Result) {
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
	e.invPerm, e.result = invPerm, result
}

// Len reports the number of entries held.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
