// Package engine is the serving layer over the paper's Match algorithm: a
// concurrent strong-simulation query engine. It wraps an immutable data
// graph as a prepared Snapshot (the graph, its frozen label table and its
// version) and evaluates queries by fanning per-ball work — the
// embarrassingly parallel loop of Fig. 3 — across a worker pool. One pass
// serves every query shape: ball outcomes are released in ascending center
// order and deduplicated as they arrive, so Match, a Limit and Each's
// streaming all see the same subgraphs under the same centers whatever the
// worker count, and a Limit or a cancelled context stops the pass early.
// Every query takes the global dual-simulation filter (Fig. 5): a dual
// simulation on a ball is one on G (Proposition 1), so the filter is sound
// for plain Match too and Match+ ≡ Match. The per-ball evaluation itself is
// core.EvalPreparedBallIn, so the engine returns exactly the perfect
// subgraphs of core.MatchWith, and the whole Result of core.MatchWith with
// DualFilter set.
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
	// and cancels outstanding ball work; 0 returns all matches. The
	// subgraphs kept are the first Limit by smallest producing center, the
	// same at any worker count.
	Limit int
	// Trace, when non-nil, is the query's observation record: stage wall
	// times, candidate-center counts and evaluated ball sizes, the live
	// stage and ball count, and stage spans under its Root. Recording never
	// changes results, and a nil Trace adds no per-ball allocations. The
	// record must not be shared across concurrent queries; read its Stats
	// only after the query has finished (after Match or Each returns).
	Trace *obs.QueryStats
	// Planner, when non-nil, lets an unlimited Match use the planner's
	// match-result cache: an exact repeat (the same pattern up to
	// isomorphism, radius and mode, on the same snapshot version) is served
	// without evaluation, and any other query is evaluated and stored. Each
	// ignores it. Caching never changes the served Result, Stats included.
	Planner *plan.Planner
	// Slice, when its Of is positive, restricts the query to one share of
	// the candidate centers, those v with v mod Of = Index: one replica's
	// part of a fleet that splits the centers rather than the graph. Every
	// execution path honours it. BallsSkipped still counts against all
	// candidates, and a sliced query never reads or writes the result cache.
	Slice CenterSlice
}

// CenterSlice names one of Of disjoint shares of a query's candidate
// centers: those v with v mod Of = Index. The zero value is every center.
type CenterSlice struct{ Index, Of int }

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
	if sl := opts.Slice; sl.Of > 0 {
		kept := p.centers[:0]
		for _, v := range p.centers {
			if int(v)%sl.Of == sl.Index {
				kept = append(kept, v)
			}
		}
		p.centers = kept
	}
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
// goroutine in ascending center order, counting it into tr. sink returning
// false cancels the remaining work; outcomes evaluated past that point never
// reach sink, so an early exit's stats count exactly the prefix it saw.
// Returns ctx's error when the context ends the run — even when the sink
// stopped it first (a consumer aborting on ctx.Done stops via the sink; its
// callers must still see the context error) — and nil for a sink stop with a
// live context, the Limit early exit. Cancellation is observed between
// balls; a ball evaluation already underway runs to completion. The eval
// span, when tr records one, parents the pool's per-worker "eval.worker"
// spans.
func (e *Engine) evalCenters(ctx context.Context, p *preparedQuery, coreOpts core.Options, tr *obs.QueryStats, sink func(ballOutcome) bool) error {
	tr.Begin(obs.StageEval)
	err := exec.RunOrdered(ctx, exec.Options{Workers: e.workers, Span: tr.Span()}, len(p.centers),
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
// index order.
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
// with this engine's worker pool. Under opts.Limit it is the first Limit
// subgraphs Each hands out, canonically ordered. It honors ctx: when the
// context is cancelled or its deadline passes mid-run, Match returns ctx's
// error.
func (e *Engine) Match(ctx context.Context, q *graph.Graph, opts QueryOptions) (*core.Result, error) {
	cc := e.planLookup(q, opts) // nil when the query cannot use the cache
	if cc != nil && cc.hit != nil {
		return e.serveHit(cc, opts.Trace), nil
	}
	res := &core.Result{}
	stats, err := e.Each(ctx, q, opts, func(ps *core.PerfectSubgraph) bool {
		res.Subgraphs = append(res.Subgraphs, ps)
		return true
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	tr := opts.Trace
	tr.Begin(obs.StageMerge)
	core.SortSubgraphs(res.Subgraphs)
	cc.store(res)
	tr.End("", obs.Attr{Key: "matches", Value: int64(len(res.Subgraphs))})
	return res, nil
}

// Each runs one query and hands emit, on the calling goroutine, every
// distinct perfect subgraph in ascending order of its smallest producing
// center — the order core.MatchWith admits them in, so the subgraphs and
// their Centers are Match's, before its canonical sort. It stops when emit
// returns false or once opts.Limit subgraphs have been handed out; the
// returned Stats count the balls evaluated up to there. It never consults
// opts.Planner. A pattern Match rejects is an error before any emit.
//
// It is the one evaluation path behind Match too: prepare, then admit every
// ball outcome through one deduper in ascending center order, expanding
// each admitted relation under minQ.
func (e *Engine) Each(ctx context.Context, q *graph.Graph, opts QueryOptions, emit func(*core.PerfectSubgraph) bool) (core.Stats, error) {
	p, err := e.prepare(ctx, q, opts)
	if err != nil {
		return core.Stats{}, err
	}
	defer p.release()
	stats := p.stats
	if p.done {
		// Q ⊀D G has no matches at any center; a cached empty entry still
		// serves exact repeats.
		return stats, nil
	}
	dedup := core.NewDeduper()
	left := opts.Limit // subgraphs still wanted; unbounded when Limit <= 0
	err = e.evalCenters(ctx, p, opts.coreOptions(), opts.Trace, func(o ballOutcome) bool {
		foldStats(&stats, o.stats)
		if !dedup.Admit(o.ps, &stats) {
			return true
		}
		if opts.MinimizeQuery {
			core.ExpandRelation(o.ps, q, p.classOf)
		}
		left--
		return emit(o.ps) && left != 0
	})
	return stats, err
}
