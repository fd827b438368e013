// Package plan is the query-planning layer between the /v1 serving surface
// and the execution engine: a version-aware match-result cache that answers
// exact repeats, and the anchor check that standing-query maintenance uses
// to skip dirty centers.
//
//   - Result caching (Cache), used by the engine when
//     engine.QueryOptions.Planner is set: completed Match results keyed by
//     canonical pattern (Canon), effective radius and mode. A lookup is a
//     hit or a miss: a hit — the same pattern up to isomorphism, at the same
//     radius, mode and version — is served by relation remapping in
//     O(result); a miss evaluates from scratch and stores its result. An
//     entry is valid at exactly the store version it was computed on: the
//     first lookup or store at a newer version empties the cache, so an
//     update batch pays nothing for it. On a live store every batch dirties
//     far more centers than the entries could keep, so a repaired entry
//     would cost about what a miss costs.
//
//   - Center anchoring (Anchored): the graph's one-hop neighbour-label
//     signatures — the exact-path counterpart of TALE's NH-index in
//     internal/approx — behind a label-pair adjacency filter, and behind that
//     an exact anchor check: the first dQ rounds of dual-simulation
//     refinement unfolded from the center. Every filter is a necessary
//     condition for a ball match, so it only skips balls that provably
//     cannot match. Served queries do not use it: the engine's global
//     dual-simulation filter implies both checks.
//
// Correctness bar, relied on by the engine's tests: a planner-on query
// answers byte-identically to a planner-off one on the same snapshot.
package plan

import "repro/internal/obs"

// Planner metrics, registered into the process-wide registry and served on
// /v1/metrics.
var (
	cacheHits = obs.Default.Counter("plan_cache_hits_total",
		"match queries answered from a cached entry of their version")
	cacheMisses = obs.Default.Counter("plan_cache_misses_total",
		"match queries evaluated from scratch (no cached entry of their key and version)")
	cacheEntries = obs.Default.Gauge("plan_cache_entries",
		"match-result cache entries currently held, summed over every planner in the process")
	cacheEvictions = obs.Default.Counter("plan_cache_evictions_total",
		"cache entries evicted by the LRU capacity bound")
	cacheRejected = obs.Default.Counter("plan_cache_rejected_stores_total",
		"completed results not cached because the cache had already moved to a newer version")
)

// cacheCapacity bounds the match-result cache (LRU entries).
const cacheCapacity = 128

// Planner is what a serving layer hands to engine.QueryOptions.Planner: the
// result cache. One Planner is shared by every query against the store it
// serves and is safe for concurrent use.
type Planner struct {
	cache *Cache
}

// NewPlanner builds a planner. Its cache follows the versions of the snapshots queried through it, so a mutable
// store need tell it nothing about updates.
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
