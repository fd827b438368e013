package engine

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
)

// cacheCtx is the per-query cache plan of one planned Match: the key and
// version it will be stored under, and — depending on the lookup outcome —
// either an entry of the query's version to serve directly (hit) or the
// center restriction of a containment hit. nil when the query cannot use
// the cache (no planner, Limit set, invalid pattern).
type cacheCtx struct {
	cache   *plan.Cache
	key     string
	perm    []int32 // query node -> canonical position
	radius  int
	version uint64
	outcome string

	// hit is set for an exact-key entry: serve by remapping, no evaluation
	// at all.
	hit *plan.Cached
	// restrict limits a containment hit's ball evaluation to these centers
	// (ascending, possibly none): the containing entry's matching centers.
	restrict []int32
}

// planLookup consults the planner's result cache for one Match execution.
// Pattern validation failures return nil so the normal path reports its
// usual errors; the caller must already have routed Limit > 0 elsewhere.
func (e *Engine) planLookup(q *graph.Graph, opts QueryOptions) *cacheCtx {
	c := opts.Planner.Cache()
	if c == nil || q == nil || q.NumNodes() == 0 {
		return nil
	}
	dq, connected := graph.Diameter(q)
	if !connected {
		return nil
	}
	radius := opts.Radius
	if radius <= 0 {
		radius = dq
	}
	canon, perm := plan.Canon(q)
	mode := 2 // the dual-filter bit: every query takes the global filter
	if opts.MinimizeQuery {
		mode |= 1
	}
	if opts.ConnectivityPruning {
		mode |= 4
	}
	cc := &cacheCtx{
		cache:   c,
		key:     plan.CacheKey(canon, radius, mode),
		perm:    perm,
		radius:  radius,
		version: e.snap.Version(),
	}
	cached, outcome := c.Get(cc.key, cc.version)
	cc.outcome = outcome
	if outcome == plan.OutcomeHit {
		cc.hit = cached
	} else if cs := c.FindContaining(q, radius, cc.version); cs != nil {
		// Exact key missed; a cached superset query still bounds the
		// evaluation. Containment works across modes: the per-center match
		// outcome is mode-independent (Match+ is result-preserving ball by
		// ball), so any entry's center set is a valid superset.
		cc.outcome = plan.OutcomeContained
		cc.restrict = cs.Centers
	} else {
		c.NoteMiss()
	}
	if tr := opts.Trace; tr != nil {
		tr.PlanCacheOutcome = cc.outcome
	}
	return cc
}

// mapTo composes the query's canonical perm with the cached entry's
// inverse: mapTo[u] is the cached-pattern node playing query node u's
// role. identity reports the common case of equal numbering, where cached
// subgraphs can be shared without copying.
func (cc *cacheCtx) mapTo(c *plan.Cached) ([]int32, bool) {
	m := make([]int32, len(cc.perm))
	identity := true
	for u := range m {
		m[u] = c.InvPerm[cc.perm[u]]
		if m[u] != int32(u) {
			identity = false
		}
	}
	return m, identity
}

// serveHit answers a clean cache hit in O(result): shared subgraphs when
// the query's numbering equals the cached pattern's, otherwise one fresh
// PerfectSubgraph per match with the relation keys translated (node and
// edge slices are always shared — they are data-side and read-only).
func (e *Engine) serveHit(cc *cacheCtx, tr *obs.QueryStats) *core.Result {
	tr.BeginAs(obs.StageMerge, "plan.hit") // nil-safe
	hit := cc.hit
	mapTo, identity := cc.mapTo(hit)
	res := &core.Result{Stats: hit.Result.Stats}
	if identity {
		res.Subgraphs = hit.Result.Subgraphs
	} else {
		res.Subgraphs = make([]*core.PerfectSubgraph, 0, len(hit.Result.Subgraphs))
		for _, ps := range hit.Result.Subgraphs {
			res.Subgraphs = append(res.Subgraphs, remapSubgraph(ps, mapTo))
		}
	}
	tr.End("", obs.Attr{Key: "matches", Value: int64(len(res.Subgraphs))})
	return res
}

// remapSubgraph translates a cached subgraph's relation to the query's
// pattern numbering. Center, node and edge data are shared; only the Rel
// map is rebuilt.
func remapSubgraph(ps *core.PerfectSubgraph, mapTo []int32) *core.PerfectSubgraph {
	rel := make(map[int32][]int32, len(mapTo))
	for u, cu := range mapTo {
		if m, ok := ps.Rel[cu]; ok {
			rel[int32(u)] = m
		}
	}
	return &core.PerfectSubgraph{Center: ps.Center, Nodes: ps.Nodes, Edges: ps.Edges, Rel: rel}
}

// store caches a completed execution under the query's key: centers are its
// pre-dedup matching centers, ascending. Nil-safe so Match can call it
// unconditionally on planned paths.
func (cc *cacheCtx) store(q *graph.Graph, centers []int32, res *core.Result) {
	if cc == nil {
		return
	}
	inv := make([]int32, len(cc.perm))
	for u, p := range cc.perm {
		inv[p] = int32(u)
	}
	cc.cache.Put(cc.key, q, inv, cc.radius, cc.version, centers, res)
}

// intersectSorted keeps the elements of a (ascending) also present in b
// (ascending), in place.
func intersectSorted(a, b []int32) []int32 {
	w, j := 0, 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			a[w] = x
			w++
		}
	}
	return a[:w]
}
