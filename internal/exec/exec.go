// Package exec is the one ball-evaluation worker pool of this repository.
//
// Strong simulation's data parallelism is "evaluate a ball per candidate
// center" (paper Section 4.1), and every such loop of the repository —
// core.MatchWith, the engine, standing-query maintenance, approx — runs
// here: context cancellation and early exit around pluggable per-position
// evaluators, each handed a reusable Scratch so the hot path allocates
// nothing per ball (the auxiliary-state reuse GraphMini-style matchers win
// by). The stages are closures over the Scratch:
//
//   - a center source is the position space [0, n) plus whatever slice the
//     caller indexes (all nodes, candidate centers, dirty centers);
//   - a ball provider runs inside eval: Scratch.Balls.View makes a served
//     query's ball a view of the kept graph the query built once into the
//     scratch it holds (GetScratch) — its candidates and their adjacency —
//     BuildRestricted builds a ball of its own restricted to a candidate
//     set, Build the whole ball;
//   - the evaluator is core.EvalPreparedBallIn, or any pure function of the
//     position;
//   - the sink runs on the calling goroutine, in ascending position order.
//
// The pool is the process's: GOMAXPROCS workers, started by the first run
// that wants help, each holding its own Scratch for good. A run publishes
// its position count, its eval closure and an atomic claim index; the
// calling goroutine claims positions and offers the run, without blocking,
// to idle workers, which claim beside it into a slot per position. No run
// starts a goroutine or makes a channel. When no worker is idle, or Workers
// is 1, the caller evaluates every position itself, eval and sink
// alternating in position order: the paper's complexity experiments stay
// deterministic, and a loaded server pays nothing for parallelism it cannot
// get.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/simulation"
)

// Pool metrics, registered into the process-wide registry so /v1/metrics can
// report pipeline saturation. They move once per claimed position or once
// per participant in a run, so the per-ball path stays allocation-free.
var (
	poolRuns = obs.Default.Counter("exec_runs_total",
		"ball-evaluation pipeline runs started")
	poolTasks = obs.Default.Counter("exec_tasks_total",
		"positions (balls) evaluated across all pipeline runs")
	poolWorkersActive = obs.Default.Gauge("exec_workers_active",
		"workers in the process's evaluation pool (GOMAXPROCS once started)")
	poolWorkersBusy = obs.Default.Gauge("exec_workers_busy",
		"pool workers inside a run; at exec_workers_active every run evaluates on its caller alone")
	poolQueueDepth = obs.Default.Gauge("exec_queue_depth",
		"positions admitted to runs but not yet claimed")
	scratchBallBuilds = obs.Default.Counter("scratch_ball_builds_total",
		"balls built into per-worker scratch arenas")
	scratchBallMisses = obs.Default.Counter("scratch_ball_misses_total",
		"scratch ball builds that had to grow an arena (reuse = builds - misses)")
	scratchBallRows = obs.Default.Counter("scratch_ball_rows_total",
		"data-graph adjacency rows read by scratch ball builds (BFS and induced rows)")
	scratchSimEvals = obs.Default.Counter("scratch_sim_evals_total",
		"ball evaluations and global dual-simulation passes run on pooled simulation scratch state")
	scratchSimMisses = obs.Default.Counter("scratch_sim_misses_total",
		"simulation scratch cycles that had to grow state (reuse = evals - misses)")
	scratchGlobalSeeded = obs.Default.Counter("scratch_global_seeded_total",
		"candidate pairs the global dual-simulation passes' signature gate let through")
	scratchGlobalKept = obs.Default.Counter("scratch_global_kept_total",
		"seeded pairs the global passes' witness sweep kept")
	scratchGlobalRows = obs.Default.Counter("scratch_global_rows_total",
		"data-graph adjacency rows the global passes tested or decoded")
)

// Scratch is the per-worker arena: reusable ball construction buffers and
// simulation state. Evaluators receive their participant's scratch and may
// use any part of it; everything built from a scratch is valid only until
// the same participant's next evaluation. A request that computes something
// once for all its balls — Match+'s global dual simulation — holds one more
// for as long as the balls read it (GetScratch, Release).
type Scratch struct {
	// Balls builds on-demand balls without per-ball allocation.
	Balls graph.BallScratch
	// Sim backs the candidate relation and refiner of one ball evaluation.
	Sim simulation.Scratch
	// Cand and Centers are for the scratch a request holds, never a worker's:
	// the candidate set its balls are restricted to when no global relation
	// in Sim supplies one, and its center list.
	Cand    graph.NodeSet
	Centers []int32

	// What fold has already added to the registry of the cumulative
	// counters Balls.Stats() and Sim.Stats() report.
	ballBuilds, ballMisses, ballRows int64
	sim                              simulation.ScratchStats
}

// scratches keeps the scratches of calling goroutines between runs and of
// requests between queries. A scratch grows to the graph (a few bitmaps, one
// bit per node each) and to the largest ball it has met; one per run would
// have every request allocate and zero all of that again. A scratch carries
// nothing from one run into the next but its capacity and its counters.
var scratches = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a scratch from the pool calling goroutines draw theirs
// from. The caller owns it, and everything built from it, until Release.
func GetScratch() *Scratch { return scratches.Get().(*Scratch) }

// Release folds the scratch's counters into the registry and returns it to
// the pool; called once per run's caller or GetScratch. A nil scratch is a
// no-op.
func (s *Scratch) Release() {
	if s == nil {
		return
	}
	s.fold()
	scratches.Put(s)
}

// fold adds the growth of the scratch's cumulative counters since it last
// folded to the registry. Every participant folds at the end of its stint,
// so a run's counts are in before it returns.
func (s *Scratch) fold() {
	b, m, r := s.Balls.Stats()
	scratchBallBuilds.Add(b - s.ballBuilds)
	scratchBallMisses.Add(m - s.ballMisses)
	scratchBallRows.Add(r - s.ballRows)
	s.ballBuilds, s.ballMisses, s.ballRows = b, m, r
	sim := s.Sim.Stats()
	scratchSimEvals.Add(sim.Evals - s.sim.Evals)
	scratchSimMisses.Add(sim.Misses - s.sim.Misses)
	scratchGlobalSeeded.Add(sim.Seeded - s.sim.Seeded)
	scratchGlobalKept.Add(sim.Kept - s.sim.Kept)
	scratchGlobalRows.Add(sim.Rows - s.sim.Rows)
	s.sim = sim
}

// Options configure one run.
type Options struct {
	// Workers caps the goroutines evaluating one run, the caller included;
	// 0 uses GOMAXPROCS and 1 runs sequentially (deterministic, in position
	// order, on the calling goroutine).
	Workers int
	// Span, when recording, is the parent under which each participant
	// records one "eval.worker" child span covering its stint in the run,
	// annotated with the number of positions it evaluated; never one per
	// position, so a zero Span costs nothing per ball.
	Span obs.Span
}

// pool is the process's evaluation workers. offers is unbuffered, so a send
// that does not block is taken by a worker parked on it: an idle one.
var pool struct {
	once   sync.Once
	size   int64
	offers chan interface{ help(*Scratch) }
}

func startPool() {
	pool.size = int64(runtime.GOMAXPROCS(0))
	pool.offers = make(chan interface{ help(*Scratch) })
	poolWorkersActive.Set(pool.size)
	for range pool.size {
		go func() {
			s := new(Scratch)
			for r := range pool.offers {
				r.help(s)
			}
		}()
	}
}

// Run evaluates positions [0, n) across the pool and feeds every outcome to
// sink on the calling goroutine, in an order of the pool's choosing. sink
// returning false stops the run: nothing more is claimed, and outcomes
// already evaluated are discarded without reaching the sink. Cancellation of
// ctx is observed between evaluations and before every delivery — an
// evaluation underway runs to completion, and no outcome reaches the sink
// after ctx ends. Run returns once every evaluation it started has returned,
// with ctx's error when the context ended the run (even when the sink
// stopped it first), nil otherwise.
func Run[T any](ctx context.Context, opts Options, n int, eval func(s *Scratch, pos int) T, sink func(pos int, v T) bool) error {
	return RunOrdered(ctx, opts, n, eval, sink)
}

// RunOrdered is Run with the sink invoked in ascending position order,
// whatever order participants complete in. Callers whose admission rule
// depends on arrival order (first-seen dedup, result caps) get sequential
// semantics at parallel speed; an early exit may leave later positions
// evaluated but unreported.
func RunOrdered[T any](ctx context.Context, opts Options, n int, eval func(s *Scratch, pos int) T, sink func(pos int, v T) bool) error {
	if n <= 0 {
		return ctx.Err()
	}
	poolRuns.Inc()
	poolQueueDepth.Add(int64(n))
	r := &run[T]{ctx: ctx, n: n, eval: eval, span: opts.Span}
	want := opts.Workers - 1 // pool workers beside the caller
	if want < 0 {
		want = runtime.GOMAXPROCS(0) - 1
	}
	want = min(want, n-1)
	s, sp := GetScratch(), r.span.StartChild("eval.worker")
	evaluated, next := 0, 0 // next: the first position not yet delivered
	for {
		if want > 0 {
			want = r.offer(want)
		}
		pos, ok := r.claim()
		if !ok {
			break
		}
		v := eval(s, pos)
		evaluated++
		if r.slots == nil { // alone so far, so pos is next
			r.deliver(sink, pos, v)
			next++
		} else {
			r.slots[pos].v = v
			r.slots[pos].full.Store(true)
			next = r.deliverFull(sink, next)
		}
	}
	r.leave(sp, evaluated)
	s.Release()
	r.helpers.Wait()
	r.deliverFull(sink, next) // every claimed position is evaluated now
	poolQueueDepth.Add(-int64(n - min(int(r.claimed.Load()), n)))
	return ctx.Err()
}

// run is one run's shared state: what its participants claim from and
// deliver into.
type run[T any] struct {
	ctx     context.Context
	n       int
	eval    func(*Scratch, int) T
	span    obs.Span
	claimed atomic.Int64   // the next position to claim
	stop    atomic.Bool    // the sink stopped or ctx ended: claim no more
	slots   []slot[T]      // one per position; nil until a worker is offered the run
	helpers sync.WaitGroup // workers that took the run and have not left it
}

type slot[T any] struct {
	v    T
	full atomic.Bool
}

// offer hands the run to idle workers without blocking, while fewer than
// want of them took it, the busy gauge says one is idle and at least two
// positions are left to claim; it returns how many it still wants.
func (r *run[T]) offer(want int) int {
	pool.once.Do(startPool)
	for want > 0 && poolWorkersBusy.Value() < pool.size && int64(r.n)-r.claimed.Load() > 1 && !r.stop.Load() {
		if r.slots == nil {
			r.slots = make([]slot[T], r.n)
		}
		r.helpers.Add(1)
		select {
		case pool.offers <- r:
			want--
		default:
			r.helpers.Done()
			return want
		}
	}
	return want
}

// help is a pool worker's stint in the run.
func (r *run[T]) help(s *Scratch) {
	poolWorkersBusy.Inc()
	sp, evaluated := r.span.StartChild("eval.worker"), 0
	for pos, ok := r.claim(); ok; pos, ok = r.claim() {
		r.slots[pos].v = r.eval(s, pos)
		r.slots[pos].full.Store(true)
		evaluated++
	}
	s.fold()
	r.leave(sp, evaluated)
	poolWorkersBusy.Dec()
	r.helpers.Done()
}

// leave ends one participant's stint: its count and its "eval.worker" span.
func (r *run[T]) leave(sp obs.Span, evaluated int) {
	poolTasks.Add(int64(evaluated))
	if sp.Recording() { // no variadic Attr slice when tracing is off
		sp.End(obs.Attr{Key: "balls", Value: int64(evaluated)})
	}
}

// claim takes the next position, or reports that none is left or the run
// stopped.
func (r *run[T]) claim() (int, bool) {
	if r.stop.Load() || r.ctx.Err() != nil {
		return 0, false
	}
	pos := int(r.claimed.Add(1) - 1)
	if pos >= r.n {
		return 0, false
	}
	poolQueueDepth.Dec()
	return pos, true
}

// deliver hands one outcome to the sink unless ctx has ended, and stops the
// run when it has or the sink says so.
func (r *run[T]) deliver(sink func(int, T) bool, pos int, v T) {
	if r.ctx.Err() != nil || !sink(pos, v) {
		r.stop.Store(true)
	}
}

// deliverFull delivers the evaluated positions from next on, in order, up to
// the first one not yet evaluated, and returns where it stopped. A run no
// worker was offered has no slots and nothing to deliver here.
func (r *run[T]) deliverFull(sink func(int, T) bool, next int) int {
	for ; next < len(r.slots) && !r.stop.Load() && r.slots[next].full.Load(); next++ {
		r.deliver(sink, next, r.slots[next].v)
	}
	return next
}
