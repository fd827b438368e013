package engine

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
)

// cacheCtx is the per-query cache plan of one planned Match: the key and
// version it will be stored under, and the entry of the query's version to
// serve directly on a hit. nil when the query cannot use the cache (no
// planner, Limit or Slice set, invalid pattern).
type cacheCtx struct {
	cache   *plan.Cache
	key     string
	perm    []int32 // query node -> canonical position
	version uint64
	// hit is set for an exact-key entry: serve by remapping, no evaluation
	// at all.
	hit *plan.Cached
}

// planLookup consults the planner's result cache for one Match execution.
// Pattern validation failures return nil so the normal path reports its
// usual errors. A limited or sliced query gets nil too: an entry holds whole
// answers, and either is part of one.
func (e *Engine) planLookup(q *graph.Graph, opts QueryOptions) *cacheCtx {
	c := opts.Planner.Cache()
	if c == nil || q == nil || q.NumNodes() == 0 || opts.Limit > 0 || opts.Slice.Of > 0 {
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
		version: e.snap.Version(),
	}
	cached, outcome := c.Get(cc.key, cc.version)
	if outcome == plan.OutcomeHit {
		cc.hit = cached
	} else {
		c.NoteMiss()
	}
	if tr := opts.Trace; tr != nil {
		tr.PlanCacheOutcome = outcome
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
// pattern numbering. Center, node and edge data and the Rel rows are
// shared; only the slice of rows is new.
func remapSubgraph(ps *core.PerfectSubgraph, mapTo []int32) *core.PerfectSubgraph {
	rel := make([][]int32, len(mapTo))
	for u, cu := range mapTo {
		rel[u] = ps.Rel[cu]
	}
	return &core.PerfectSubgraph{Center: ps.Center, Nodes: ps.Nodes, Edges: ps.Edges, Rel: rel}
}

// store caches a completed execution under the query's key. Nil-safe so
// Match can call it unconditionally.
func (cc *cacheCtx) store(res *core.Result) {
	if cc == nil {
		return
	}
	inv := make([]int32, len(cc.perm))
	for u, p := range cc.perm {
		inv[p] = int32(u)
	}
	cc.cache.Put(cc.key, inv, cc.version, res)
}
