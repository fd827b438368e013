package engine

import (
	"context"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
)

// BatchQuery is one pattern plus its options inside a batch.
type BatchQuery struct {
	Pattern *graph.Graph
	Opts    QueryOptions
}

// BatchResult is the outcome of one batch member: exactly one of Result and
// Err is set.
type BatchResult struct {
	Result *core.Result
	Err    error
}

// MatchBatch evaluates many patterns against the snapshot in one pass,
// amortizing the per-center work that single queries repeat: queries whose
// effective radius coincides are grouped, and each ball Ĝ[v, r] is
// constructed once per group and evaluated against every member pattern
// that considers v a viable center. Per-query prefilters (minimization, the
// global dual-simulation relation, candidate centers) are computed
// concurrently up front. Each member's Result is identical to what Match
// would return for it alone; a member that fails validation gets its own Err
// without affecting the rest. When ctx ends mid-batch, members not yet
// finished report ctx's error.
func (e *Engine) MatchBatch(ctx context.Context, queries []BatchQuery) []BatchResult {
	results := make([]BatchResult, len(queries))
	preps := make([]*preparedQuery, len(queries))
	defer func() {
		for _, p := range preps {
			p.release()
		}
	}()

	// Per-query precomputation (dominated by the global dual-simulation
	// filters) fans out across the worker budget on the exec pool. Each
	// evaluation files its own outcome: when ctx ends the fan-out, exec.Run
	// drops the outcomes still in flight, and a prepared query dropped there
	// would take its pooled scratch to the collector unreleased. Run returns
	// only after every evaluation has, so the slots are complete here.
	_ = exec.Run(ctx, exec.Options{Workers: e.workers}, len(queries),
		func(_ *exec.Scratch, i int) struct{} {
			preps[i], results[i].Err = e.prepare(ctx, queries[i].Pattern, queries[i].Opts)
			return struct{}{}
		},
		func(int, struct{}) bool { return true })

	// Group live queries by effective radius; the shared radius is what
	// makes one ball reusable across a group's patterns.
	groups := make(map[int][]int)
	for i, p := range preps {
		if p == nil || p.done {
			continue
		}
		groups[p.radius] = append(groups[p.radius], i)
	}
	radii := make([]int, 0, len(groups))
	for r := range groups {
		radii = append(radii, r)
	}
	sort.Ints(radii)
	for _, r := range radii {
		if ctx.Err() != nil {
			break
		}
		e.runGroup(ctx, r, groups[r], queries, preps, results)
	}

	for i, p := range preps {
		if results[i].Err != nil || results[i].Result != nil {
			continue
		}
		switch {
		case p != nil && p.done:
			// Dual filter answered the query during prepare: Q ⊀D G.
			results[i].Result = &core.Result{Stats: p.stats}
		case ctx.Err() != nil:
			results[i].Err = ctx.Err()
		}
	}
	return results
}

// runGroup evaluates all queries of one radius group over the union of
// their candidate centers, building each ball at most once.
func (e *Engine) runGroup(ctx context.Context, radius int, idxs []int, queries []BatchQuery, preps []*preparedQuery, results []BatchResult) {
	g := e.snap.g
	want := make([]*graph.NodeSet, len(idxs))
	union := graph.NewNodeSet(g.NumNodes())
	// One ball serves the whole group, so it is restricted to the union of
	// the members' candidate sets: a superset of each member's own.
	cand := graph.NewNodeSet(g.NumNodes())
	for k, i := range idxs {
		s := graph.NewNodeSet(g.NumNodes())
		for _, c := range preps[i].centers {
			s.Add(c)
		}
		want[k] = s
		union.UnionWith(s)
		cand.UnionWith(preps[i].cand)
	}
	centers := union.Slice()

	// done[k] flips once query k hit its Limit; workers consult it to skip
	// useless evaluations, and the group cancels when every member is done.
	done := make([]atomic.Bool, len(idxs))
	limited := 0
	for _, i := range idxs {
		if queries[i].Opts.Limit > 0 {
			limited++
		}
	}

	type outcome struct {
		qpos   int // index into idxs
		center int32
		ps     *core.PerfectSubgraph
		stats  core.Stats
	}

	// One exec evaluation = one center: the ball is built (or fetched) at
	// most once and evaluated against every group member that wants it.
	evalCenter := func(s *exec.Scratch, pos int) []outcome {
		center := centers[pos]
		var ball *graph.Ball // built lazily, shared by the group's patterns
		var outs []outcome
		for k, i := range idxs {
			if !want[k].Contains(center) || done[k].Load() {
				continue
			}
			if ball == nil {
				ball = s.Balls.BuildRestricted(g, center, radius, cand)
			}
			ps, stats := core.EvalPreparedBallIn(preps[i].qEff, ball, center, queries[i].Opts.coreOptions(), preps[i].global, &s.Sim)
			outs = append(outs, outcome{qpos: k, center: center, ps: ps, stats: stats})
		}
		return outs
	}

	// Collector (the exec sink). Unlimited queries gather per candidate
	// center and dedup in center order afterwards, for parity with Match;
	// limited queries dedup on arrival and stop at their cap. Collection is
	// sized by each query's candidate count, never by |V|.
	type collect struct {
		res       *core.Result
		perCenter []*core.PerfectSubgraph
		posOf     map[int32]int // center -> index into perCenter
		dedup     *core.Deduper
	}
	colls := make([]*collect, len(idxs))
	for k, i := range idxs {
		c := &collect{res: &core.Result{Stats: preps[i].stats}}
		if queries[i].Opts.Limit > 0 {
			c.dedup = core.NewDeduper()
		} else {
			c.perCenter = make([]*core.PerfectSubgraph, len(preps[i].centers))
			c.posOf = make(map[int32]int, len(preps[i].centers))
			for pos, center := range preps[i].centers {
				c.posOf[center] = pos
			}
		}
		colls[k] = c
	}
	doneCount := 0
	_ = exec.Run(ctx, exec.Options{Workers: e.workers}, len(centers), evalCenter,
		func(pos int, outs []outcome) bool {
			for _, o := range outs {
				k := o.qpos
				c := colls[k]
				if done[k].Load() {
					continue
				}
				foldStats(&c.res.Stats, o.stats)
				if c.perCenter != nil {
					c.perCenter[c.posOf[o.center]] = o.ps
					continue
				}
				if !c.dedup.Admit(o.ps, &c.res.Stats) {
					continue
				}
				c.res.Subgraphs = append(c.res.Subgraphs, o.ps)
				if len(c.res.Subgraphs) >= queries[idxs[k]].Opts.Limit {
					done[k].Store(true)
					doneCount++
					if limited == len(idxs) && doneCount == len(idxs) {
						return false // every member satisfied; stop the group early
					}
				}
			}
			return true
		})
	finalize := func(k, i int) {
		c := colls[k]
		if c.perCenter != nil {
			c.res.Subgraphs = core.DedupSubgraphs(c.perCenter, &c.res.Stats)
		}
		core.SortSubgraphs(c.res.Subgraphs)
		if queries[i].Opts.MinimizeQuery {
			for _, ps := range c.res.Subgraphs {
				core.ExpandRelation(ps, queries[i].Pattern, preps[i].classOf)
			}
		}
		results[i].Result = c.res
	}
	if err := ctx.Err(); err != nil {
		// Members that already satisfied their Limit have a complete
		// (truncated) answer; only members still scanning report the error.
		for k, i := range idxs {
			if done[k].Load() {
				finalize(k, i)
			} else {
				results[i].Err = err
			}
		}
		return
	}
	for k, i := range idxs {
		finalize(k, i)
	}
}
