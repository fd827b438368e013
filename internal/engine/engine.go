// Package engine is the serving layer over the paper's Match algorithm: a
// concurrent strong-simulation query engine. It wraps an immutable data
// graph as a prepared Snapshot (the graph, its frozen label table and its
// version) and evaluates queries by fanning per-ball work — the
// embarrassingly parallel loop of Fig. 3 — across a worker pool, with context
// cancellation, early termination and result streaming. Every query takes
// the global dual-simulation filter (Fig. 5): a dual simulation on a ball is
// one on G (Proposition 1), so the filter is sound for plain Match too and
// Match+ ≡ Match. The per-ball evaluation itself is core.EvalPreparedBallIn,
// so the engine returns exactly the perfect subgraphs of core.MatchWith, and
// the whole Result of core.MatchWith with DualFilter set.
//
// See DESIGN.md for the architecture and cmd/strongsimd for the HTTP server
// built on top.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/simulation"
)

// Config configures an Engine.
type Config struct {
	// Workers is the number of goroutines evaluating balls per query;
	// 0 uses GOMAXPROCS.
	Workers int
}

// Engine executes strong-simulation queries against one Snapshot. It is safe
// for concurrent use; all per-query state lives on the goroutines of that
// query.
type Engine struct {
	snap    *Snapshot
	workers int
}

// New prepares g and returns an engine over it.
func New(g *graph.Graph, cfg Config) *Engine {
	return NewWithSnapshot(NewSnapshot(g), cfg)
}

// NewWithSnapshot returns an engine over an existing snapshot, so several
// engines (e.g. with different worker budgets) can share prepared state.
func NewWithSnapshot(snap *Snapshot, cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{snap: snap, workers: w}
}

// Snapshot returns the engine's prepared snapshot.
func (e *Engine) Snapshot() *Snapshot { return e.snap }

// Workers returns the per-query worker count.
func (e *Engine) Workers() int { return e.workers }

// QueryOptions configure one query. The zero value is the paper's plain
// Match behind the global dual-simulation filter; PlusQuery adds Match+'s
// other two optimizations.
type QueryOptions struct {
	// Radius overrides the ball radius; 0 uses the pattern diameter dQ.
	Radius int
	// MinimizeQuery runs minQ (Fig. 4) first, keeping the original
	// diameter as the radius.
	MinimizeQuery bool
	// DualFilter is ignored: every query takes the global dual-simulation
	// filter (Fig. 5).
	//
	// Deprecated: the engine always filters; kept only because bench/ reads it.
	DualFilter bool
	// ConnectivityPruning drops ball candidates not connected to the
	// center through candidates (Section 4.2).
	ConnectivityPruning bool
	// Limit stops the query after this many distinct perfect subgraphs
	// and cancels outstanding ball work; 0 returns all matches. Which
	// subgraphs are returned under a limit depends on worker scheduling.
	Limit int
	// Trace, when non-nil, is the query's observation record: stage wall
	// times, candidate-center counts and evaluated ball sizes, the live
	// stage and ball count, and stage spans under its Root. Recording never
	// changes results, and a nil Trace adds no per-ball allocations. The
	// record must not be shared across concurrent queries; read its Stats
	// only after the query has finished (after Match returns, or after
	// Stream.Wait).
	Trace *obs.QueryStats
	// Planner, when non-nil, lets an unlimited Match use the planner's
	// match-result cache: an exact hit is served without evaluation, a
	// contained query evaluates only inside the containing entry's centers.
	// Other execution paths ignore it. Caching never changes the served
	// subgraphs.
	Planner *plan.Planner
}

// PlusQuery returns the Match+ configuration: every optimization enabled.
func PlusQuery() QueryOptions {
	return QueryOptions{MinimizeQuery: true, DualFilter: true, ConnectivityPruning: true}
}

// coreOptions are the core.Options whose Result the engine reproduces:
// DualFilter is always on.
func (o QueryOptions) coreOptions() core.Options {
	return core.Options{
		Radius:              o.Radius,
		MinimizeQuery:       o.MinimizeQuery,
		DualFilter:          true,
		ConnectivityPruning: o.ConnectivityPruning,
	}
}

// preparedQuery is the per-query state shared by every execution mode.
type preparedQuery struct {
	qEff    *graph.Graph // pattern actually matched (minimized or original)
	classOf []int32      // original pattern node -> qEff node (minimization only)
	radius  int
	global  simulation.Relation // the global dual-simulation relation
	centers []int32             // viable ball centers, ascending
	stats   core.Stats          // prefilter accounting (skipped centers, minQ size)
	done    bool                // query already answered (dual filter found Q ⊀D G)
	// cand holds every data node that can be a candidate of some pattern
	// node in any ball: the global relation's matches. Balls are built
	// restricted to it.
	cand *graph.NodeSet
	// scratch owns global, cand and centers; the query's entry point releases
	// it once the last ball has been evaluated.
	scratch *exec.Scratch
}

// release returns the query's pooled state; global, cand and centers are
// dead after it. Safe on a query that holds nothing.
func (p *preparedQuery) release() {
	p.scratch.Release()
	p.scratch = nil
}

// prepare validates the pattern and runs the per-query precomputation:
// minimization, then the global dual-simulation filter, whose matches are the
// query's candidate nodes and viable centers. A dead ctx is observed between
// the phases and inside the full-graph dual simulation, so cancelled requests
// shed their heaviest precomputation instead of running it to completion.
// The caller releases the returned query when it is done with it.
func (e *Engine) prepare(ctx context.Context, q *graph.Graph, opts QueryOptions) (*preparedQuery, error) {
	tr := opts.Trace
	tr.Begin(obs.StagePrepare) // nil-safe, like every call on the record
	if q == nil || q.NumNodes() == 0 {
		tr.End("error")
		return nil, fmt.Errorf("engine: empty pattern graph")
	}
	dq, connected := graph.Diameter(q)
	if !connected {
		tr.End("error")
		return nil, fmt.Errorf("engine: pattern graph must be connected (Section 2.1)")
	}
	p := &preparedQuery{qEff: q, radius: opts.Radius}
	if p.radius <= 0 {
		p.radius = dq
	}
	if opts.MinimizeQuery {
		p.stats.MinimizedFrom = q.Size()
		p.qEff, p.classOf = core.MinimizeQuery(q)
	}
	if err := ctx.Err(); err != nil {
		tr.End("cancelled")
		return nil, err
	}
	tr.End("")
	tr.Begin(obs.StageFilter)

	g := e.snap.g
	p.scratch = exec.GetScratch()
	rel, ok, err := simulation.DualIn(ctx, p.qEff, g, &p.scratch.Sim)
	if err != nil {
		p.release()
		tr.End("cancelled")
		return nil, err
	}
	if !ok {
		// Q ⊀D G: no ball can match (Proposition 1).
		p.release()
		p.stats.BallsSkipped = g.NumNodes()
		p.done = true
		tr.End("")
		return p, nil
	}
	p.global = rel
	p.cand = rel.DataNodesIn(g.NumNodes(), &p.scratch.Sim)
	p.scratch.Centers = p.cand.AppendTo(p.scratch.Centers[:0])
	p.centers = p.scratch.Centers
	p.stats.BallsSkipped = g.NumNodes() - len(p.centers)
	if tr != nil {
		tr.CandidateCenters = len(p.centers)
	}
	tr.End("", obs.Attr{Key: "candidate_centers", Value: int64(len(p.centers))})
	return p, nil
}

// ballOutcome is one evaluated ball, tagged with its center's position in
// the prepared center list (which is ascending, so position order is center
// order).
type ballOutcome struct {
	pos   int
	ps    *core.PerfectSubgraph
	stats core.Stats
	// ballNodes/ballEdges record the evaluated ball's size for query
	// tracing; plain ints in the outcome struct, so the stats-off path pays
	// two register stores per ball and no allocation.
	ballNodes int
	ballEdges int
}

// evalCenters runs the eval stage: it fans ball evaluation over the
// internal/exec pool and feeds every outcome to sink on the calling
// goroutine, counting it into tr. sink returning false cancels the remaining
// work (outcomes already in flight are discarded without reaching sink, so
// early exits undercount stats by design). Returns ctx's error when the
// context ends the run — even when the sink stopped it first (a stream
// consumer aborting on ctx.Done stops via the sink; its callers must still
// see the context error) — and nil for a sink stop with a live context, the
// Limit early exit. Cancellation is observed between balls; a ball
// evaluation already underway runs to completion. The eval span, when tr
// records one, parents the pool's per-worker "eval.worker" spans.
func (e *Engine) evalCenters(ctx context.Context, p *preparedQuery, coreOpts core.Options, tr *obs.QueryStats, sink func(ballOutcome) bool) error {
	tr.Begin(obs.StageEval)
	err := exec.Run(ctx, exec.Options{Workers: e.workers, Span: tr.Span()}, len(p.centers),
		func(s *exec.Scratch, pos int) ballOutcome {
			center := p.centers[pos]
			ball := s.Balls.BuildRestricted(e.snap.g, center, p.radius, p.cand)
			ps, stats := core.EvalPreparedBallIn(p.qEff, ball, center, coreOpts, p.global, &s.Sim)
			return ballOutcome{pos: pos, ps: ps, stats: stats,
				ballNodes: ball.G.NumNodes(), ballEdges: ball.G.NumEdges()}
		},
		func(pos int, o ballOutcome) bool {
			tr.ObserveBall(o.ballNodes, o.ballEdges)
			return sink(o)
		})
	tr.End(spanStatus(err), obs.Attr{Key: "balls", Value: tr.Balls()})
	return err
}

// spanStatus names how a stage ended, as its span reports it: empty for
// success.
func spanStatus(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	default:
		return "error"
	}
}

// EvalCenters evaluates the plain-Match ball outcome for each listed center
// on the engine's worker pool: the ball Ĝ[c, radius] is built into the
// worker's scratch restricted to the nodes carrying a pattern label, as
// core.Match builds it, and is run through
// core.EvalPreparedBallIn with zero options and no global relation — exactly
// the per-center work of core.Match restricted to the given centers.
// report is called on the calling goroutine with the center's index in
// centers and its maximum perfect subgraph (nil when the ball has none), in
// worker completion order.
// radius <= 0 uses the pattern diameter. Callers are responsible for any
// center prefiltering (label precheck, plan.Anchored); every listed center is
// evaluated — a
// restricted ball always keeps its center, so one outside the candidate set
// still gets a ball of its own and comes back nil.
//
// internal/live uses this to re-evaluate the dirty centers of a standing
// query after an update batch; the outcomes are interchangeable with those
// Match computed for the same centers.
// trace, when non-nil, records the evaluation like a traced Match would
// (candidate centers, per-ball sizes, the eval stage); nil adds no per-ball
// work.
func (e *Engine) EvalCenters(ctx context.Context, q *graph.Graph, radius int, centers []int32, trace *obs.QueryStats, report func(i int, ps *core.PerfectSubgraph)) error {
	if q == nil || q.NumNodes() == 0 {
		return fmt.Errorf("engine: empty pattern graph")
	}
	if radius <= 0 {
		dq, connected := graph.Diameter(q)
		if !connected {
			return fmt.Errorf("engine: pattern graph must be connected (Section 2.1)")
		}
		radius = dq
	}
	// The candidate set is |V| bits; a caller maintaining standing queries
	// asks once per query per update batch, so it comes from the pool.
	sc := exec.GetScratch()
	defer sc.Release()
	p := &preparedQuery{qEff: q, radius: radius, centers: centers, cand: e.snap.g.NodesLabeledInto(q, &sc.Cand)}
	if trace != nil {
		trace.CandidateCenters = len(centers)
	}
	return e.evalCenters(ctx, p, core.Options{}, trace, func(o ballOutcome) bool {
		report(o.pos, o.ps)
		return true
	})
}

func foldStats(dst *core.Stats, src core.Stats) {
	dst.BallsExamined += src.BallsExamined
	dst.BallsSkipped += src.BallsSkipped
	dst.PairsRemoved += src.PairsRemoved
}

// Match runs one query to completion and returns the full canonical result —
// byte-for-byte the Result that core.MatchWith produces for the same pattern
// under opts.coreOptions(), the same options with DualFilter on (same
// subgraphs, same dedup tie-breaking toward the smallest center, same
// ordering, same stats), just evaluated against the snapshot
// with this engine's worker pool. It honors ctx: when the context is
// cancelled or its deadline passes mid-run, Match returns ctx's error.
func (e *Engine) Match(ctx context.Context, q *graph.Graph, opts QueryOptions) (*core.Result, error) {
	if opts.Limit > 0 {
		return e.matchLimited(ctx, q, opts)
	}
	cc := e.planLookup(q, opts) // nil when the query cannot use the cache
	if cc != nil && cc.hit != nil {
		return e.serveHit(cc, opts.Trace), nil
	}
	p, err := e.prepare(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	defer p.release()
	res := &core.Result{Stats: p.stats}
	if p.done {
		// Q ⊀D G has no matches at any center; the empty entry still
		// serves exact repeats and bounds contained queries to nothing.
		cc.store(q, nil, res)
		return res, nil
	}
	if cc != nil && cc.outcome == plan.OutcomeContained {
		// Containment hit: only the cached entry's matching centers can
		// produce an outcome; everything else is provably unmatched.
		kept := intersectSorted(p.centers, cc.restrict)
		res.Stats.BallsSkipped += len(p.centers) - len(kept)
		p.centers = kept
	}

	// Collect per center, then dedup in center order so duplicate subgraphs
	// keep the smallest producing center, exactly as core.MatchWith does.
	// Sized by candidate count, not |V|: per-query memory must not scale
	// with graph size when the prefilter leaves few viable centers.
	out := make([]*core.PerfectSubgraph, len(p.centers))
	tr := opts.Trace
	err = e.evalCenters(ctx, p, opts.coreOptions(), tr, func(o ballOutcome) bool {
		foldStats(&res.Stats, o.stats)
		out[o.pos] = o.ps
		return true
	})
	if err != nil {
		return nil, err
	}
	tr.Begin(obs.StageMerge)
	var matched []int32 // pre-dedup matching centers, for containment
	if cc != nil {
		for pos, ps := range out {
			if ps != nil {
				matched = append(matched, p.centers[pos])
			}
		}
	}
	res.Subgraphs = core.DedupSubgraphs(out, &res.Stats)
	core.SortSubgraphs(res.Subgraphs)
	if opts.MinimizeQuery {
		for _, ps := range res.Subgraphs {
			core.ExpandRelation(ps, q, p.classOf)
		}
	}
	cc.store(q, matched, res)
	tr.End("", obs.Attr{Key: "matches", Value: int64(len(res.Subgraphs))})
	return res, nil
}

// matchLimited collects up to opts.Limit subgraphs via the streaming path,
// cancelling outstanding balls once the limit is reached.
func (e *Engine) matchLimited(ctx context.Context, q *graph.Graph, opts QueryOptions) (*core.Result, error) {
	res := &core.Result{}
	stats, err := e.run(ctx, q, opts, func(ps *core.PerfectSubgraph) bool {
		res.Subgraphs = append(res.Subgraphs, ps)
		return true
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	opts.Trace.Begin(obs.StageMerge)
	core.SortSubgraphs(res.Subgraphs)
	opts.Trace.End("")
	return res, nil
}

// run is the streaming execution: incremental dedup (first arrival wins),
// per-subgraph relation expansion, and limit enforcement. emit returning
// false stops the query without error.
func (e *Engine) run(ctx context.Context, q *graph.Graph, opts QueryOptions, emit func(*core.PerfectSubgraph) bool) (core.Stats, error) {
	p, err := e.prepare(ctx, q, opts)
	if err != nil {
		return core.Stats{}, err
	}
	defer p.release()
	stats := p.stats
	if p.done {
		return stats, nil
	}

	// Streaming dedups and expands inside the sink, so for run-based
	// executions the whole post-prepare phase is the eval stage.
	dedup := core.NewDeduper()
	emitted := 0
	err = e.evalCenters(ctx, p, opts.coreOptions(), opts.Trace, func(o ballOutcome) bool {
		foldStats(&stats, o.stats)
		if !dedup.Admit(o.ps, &stats) {
			return true
		}
		if opts.MinimizeQuery {
			core.ExpandRelation(o.ps, q, p.classOf)
		}
		if !emit(o.ps) {
			return false
		}
		emitted++
		return opts.Limit <= 0 || emitted < opts.Limit
	})
	return stats, err
}

// Stream is a handle to an in-flight streaming query: range over C until it
// closes, then call Wait for the run's statistics and error. Matches arrive
// deduplicated, in worker completion order (nondeterministic). Abandoning C
// without cancelling the query's context leaks the query's goroutines until
// the context ends; cancel the context to stop early.
type Stream struct {
	C     <-chan *core.PerfectSubgraph
	done  chan struct{}
	stats core.Stats
	err   error
}

// Wait blocks until the query has finished and returns its statistics and
// error. C is closed by the time Wait returns.
func (s *Stream) Wait() (core.Stats, error) {
	<-s.done
	return s.stats, s.err
}

// Stream starts a query and returns immediately; matches are delivered on
// the stream's channel as balls complete. Pattern validation errors are
// reported through Wait.
func (e *Engine) Stream(ctx context.Context, q *graph.Graph, opts QueryOptions) *Stream {
	out := make(chan *core.PerfectSubgraph, e.workers)
	s := &Stream{C: out, done: make(chan struct{})}
	go func() {
		defer close(out)
		defer close(s.done)
		s.stats, s.err = e.run(ctx, q, opts, func(ps *core.PerfectSubgraph) bool {
			select {
			case out <- ps:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return s
}

// MatchTopK runs a query keeping only the k best matches under the metric
// (nil = core.DefaultMetric), with the ordering of Result.TopK: score
// descending, then fewer nodes, then canonical signature. Memory stays
// O(k) regardless of how many subgraphs the query produces; the query
// itself still evaluates every viable ball unless opts.Limit also applies.
// k <= 0 ranks every match.
func (e *Engine) MatchTopK(ctx context.Context, q *graph.Graph, k int, metric core.Metric, opts QueryOptions) ([]core.Ranked, core.Stats, error) {
	if metric == nil {
		metric = core.DefaultMetric
	}
	top := newTopK(k)
	stats, err := e.run(ctx, q, opts, func(ps *core.PerfectSubgraph) bool {
		top.offer(core.Ranked{PerfectSubgraph: ps, Score: metric(q, e.snap.g, ps)})
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	opts.Trace.Begin(obs.StageMerge)
	ranked := top.ranked()
	opts.Trace.End("")
	return ranked, stats, nil
}
