// Package plan is the query-planning layer between the /v1 serving surface
// and the execution engine: it shrinks the candidate-center set before any
// ball is built, and answers repeated or contained queries from a
// version-aware match-result cache.
//
// Two independent mechanisms, composed by the engine when
// engine.QueryOptions.Planner is set:
//
//   - Candidate pruning (Index, a handle on the snapshot's graph): the
//     graph's one-hop neighbour-label signatures — the exact-path
//     counterpart of TALE's NH-index in internal/approx — behind a
//     label-pair adjacency filter, and behind that an exact anchor check:
//     the first dQ rounds of dual-simulation refinement unfolded from the
//     center (Anchored is the same check without stats or counters). Every
//     filter is a necessary condition for a ball match, so pruning never
//     changes results, only skips balls that provably cannot match.
//
//   - Result caching (Cache): completed Match results keyed by canonical
//     pattern (Canon), effective radius and mode, storing the pre-dedup
//     per-center outcomes alongside the assembled result. An exact hit is
//     served by relation remapping in O(result). A query contained in a
//     cached one (ContainedIn: surjective label-preserving homomorphism
//     from the cached pattern onto the new one, radius subsumed) evaluates
//     only inside the cached outcome centers. Live stores invalidate
//     surgically: each update batch marks the ≤ radius-hop dirty centers
//     (one set per radius, shared with standing-query maintenance) as
//     pending on every entry, and the next exact-key lookup repairs just
//     those centers instead of re-evaluating the graph.
//
// Correctness bar, relied on by the engine's tests: a planner-on query
// answers byte-identically to a planner-off one on the same snapshot.
package plan

import "repro/internal/obs"

// Planner metrics, registered into the process-wide registry and served on
// /v1/metrics.
var (
	candidatesBefore = obs.Default.Counter("plan_candidates_before_total",
		"candidate centers entering the pruning filters")
	prunedDegree = obs.Default.Counter("plan_pruned_degree_total",
		"candidate centers pruned by the label-pair filter: the Bloom-folded neighbor labels alone, no degree bound")
	prunedAnchor = obs.Default.Counter("plan_pruned_anchor_total",
		"candidate centers pruned by the anchor check: min(radius, dQ) exact refinement rounds unfolded from the center")
	candidatesPruned = obs.Default.Counter("plan_candidates_pruned_total",
		"candidate centers pruned before ball construction (all filters)")
	cacheHits = obs.Default.Counter("plan_cache_hits_total",
		"match queries answered from a clean cached entry")
	cacheContained = obs.Default.Counter("plan_cache_contained_hits_total",
		"match queries evaluated only inside a containing cached entry's centers")
	cacheRefreshes = obs.Default.Counter("plan_cache_refresh_total",
		"stale cached entries repaired by re-evaluating pending dirty centers")
	cacheMisses = obs.Default.Counter("plan_cache_misses_total",
		"match queries evaluated from scratch (no usable cached entry)")
	cacheEntries = obs.Default.Gauge("plan_cache_entries",
		"match-result cache entries currently held")
	cacheEvictions = obs.Default.Counter("plan_cache_evictions_total",
		"cache entries evicted by the LRU capacity bound")
	cacheInvalidated = obs.Default.Counter("plan_cache_invalidated_entries_total",
		"entry invalidations: an update batch marked dirty centers pending on an entry")
	cacheDropped = obs.Default.Counter("plan_cache_dropped_entries_total",
		"entries dropped because accumulated dirty centers made repair pointless")
	cacheRejected = obs.Default.Counter("plan_cache_rejected_stores_total",
		"completed results not cached because a newer version was already invalidating")
)

// cacheCapacity bounds the match-result cache (LRU entries).
const cacheCapacity = 128

// Planner is what a serving layer hands to engine.QueryOptions.Planner:
// candidate pruning plus the result cache. One Planner is shared by every
// query against the store it serves and is safe for concurrent use.
type Planner struct {
	cache *Cache
}

// NewPlanner builds a planner. Every planner prunes and caches; the serving
// layer owning the data tells it about mutations through Invalidate.
func NewPlanner() *Planner {
	return &Planner{cache: newCache(cacheCapacity)}
}

// Cache returns the planner's result cache; nil for a nil planner (an
// unplanned query).
func (p *Planner) Cache() *Cache {
	if p == nil {
		return nil
	}
	return p.cache
}

// Invalidate tells the cache that the given store version is about to be
// published: dirtyFor(radius) must return, ascending, the centers whose
// ≤ radius-hop neighborhoods the batch touched (under the pre- or
// post-batch adjacency); the cache keeps the slices it is given, so they
// must never be written again. Callers must invoke this BEFORE the new
// version becomes visible to queries, so no query on the new version can
// observe a not-yet-invalidated entry. A nil planner is a no-op.
func (p *Planner) Invalidate(version uint64, dirtyFor func(radius int) []int32) {
	if p == nil {
		return
	}
	p.cache.invalidate(version, dirtyFor)
}

// CountPruned folds one query's pruning stats into the aggregate
// plan_candidates_pruned_total counter (the per-filter counters are
// incremented by Prune itself).
func CountPruned(st PruneStats) {
	if n := st.PrunedDegree + st.PrunedAnchor; n > 0 {
		candidatesPruned.Add(int64(n))
	}
}
