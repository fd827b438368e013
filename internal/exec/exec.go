// Package exec is the one ball-evaluation worker pool of this repository.
//
// Strong simulation's data parallelism is "evaluate a ball per candidate
// center" (paper Section 4.1). Before this package, several independent
// implementations of that loop existed — core.MatchWith, the engine's
// evalCenters and batch groups, and the sequential sweeps of distributed
// and approx — each allocating a fresh ball plus simulation state per
// center. exec consolidates them: one pool with context
// cancellation and early exit, driving pluggable per-position evaluators,
// with a reusable per-worker Scratch so the hot path stops allocating per
// ball (the auxiliary-structure reuse that GraphMini-style matchers win by).
//
// The stages are supplied by the caller as closures over the Scratch:
//
//   - a center source is just the position space [0, n) plus whatever slice
//     the caller indexes (all nodes, candidate centers, dirty centers);
//   - a ball provider runs inside eval — Scratch.Balls.BuildRestricted for
//     an on-demand BFS that keeps the query's candidates only (Build keeps
//     the whole ball), or a caller-assembled ball as in distributed, whose
//     coordinator assembles each ball from pieces its sites ship;
//   - the evaluator is core.EvalPreparedBallIn (or any other pure function
//     of the position);
//   - the sink runs on the calling goroutine, unordered (Run, worker
//     completion order) or ordered (RunOrdered, ascending position).
//
// Sequential runs (Workers == 1) bypass the pool entirely: eval and sink
// alternate in position order on the calling goroutine, which keeps the
// paper's complexity experiments deterministic and makes the executor free
// when there is nothing to parallelize.
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
// report pipeline saturation. Per-task updates are single atomic operations;
// scratch reuse counters are folded in once per retiring worker, so the
// per-ball path stays allocation-free and nearly contention-free.
var (
	poolRuns = obs.Default.Counter("exec_runs_total",
		"ball-evaluation pipeline runs started")
	poolTasks = obs.Default.Counter("exec_tasks_total",
		"positions (balls) evaluated across all pipeline runs")
	poolWorkersActive = obs.Default.Gauge("exec_workers_active",
		"evaluation goroutines currently alive")
	poolWorkersBusy = obs.Default.Gauge("exec_workers_busy",
		"evaluation goroutines currently inside an evaluation")
	poolQueueDepth = obs.Default.Gauge("exec_queue_depth",
		"positions admitted to runs but not yet picked up by a worker")
	scratchBallBuilds = obs.Default.Counter("scratch_ball_builds_total",
		"balls built into per-worker scratch arenas")
	scratchBallMisses = obs.Default.Counter("scratch_ball_misses_total",
		"scratch ball builds that had to grow an arena (reuse = builds - misses)")
	scratchSimEvals = obs.Default.Counter("scratch_sim_evals_total",
		"ball evaluations and global dual-simulation passes run on pooled simulation scratch state")
	scratchSimMisses = obs.Default.Counter("scratch_sim_misses_total",
		"simulation scratch cycles that had to grow state (reuse = evals - misses)")
)

// Scratch is the per-worker arena: reusable ball construction buffers and
// simulation state. Evaluators receive their worker's scratch and may use
// any part of it; everything built from a scratch is valid only until the
// same worker's next evaluation. A request that computes something once for
// all its balls — Match+'s global dual simulation — holds one more for as
// long as the balls read it (GetScratch, Release).
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

	// What Release has already folded into the registry of the cumulative
	// counters Balls.Stats() and Sim.Stats() report.
	ballBuilds, ballMisses, simEvals, simMisses int64
}

// scratches keeps retired scratches for the next run's workers. A scratch
// grows to the graph (a bitmap and an int32 per node) and to the largest
// ball it has met; one per worker per run would have every request allocate
// and zero all of that again. A worker takes one when it starts and hands it
// back when it retires, and what sits idle is the collector's to drop.
// Nothing built from a scratch outlives the evaluation that built it, so a
// scratch carries nothing from one run into the next but its capacity and
// its counters.
var scratches = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a scratch from the pool the workers draw theirs from. The
// caller owns it, and everything built from it, until Release.
func GetScratch() *Scratch { return scratches.Get().(*Scratch) }

// Release folds what the scratch did since it was last released into the
// registry — the growth of its cumulative counters, so a scratch that serves
// many runs is counted once — and returns it to the pool; called once per
// worker, sequential run or GetScratch. A nil scratch is a no-op.
func (s *Scratch) Release() {
	if s == nil {
		return
	}
	b, m := s.Balls.Stats()
	scratchBallBuilds.Add(b - s.ballBuilds)
	scratchBallMisses.Add(m - s.ballMisses)
	s.ballBuilds, s.ballMisses = b, m
	ev, em := s.Sim.Stats()
	scratchSimEvals.Add(ev - s.simEvals)
	scratchSimMisses.Add(em - s.simMisses)
	s.simEvals, s.simMisses = ev, em
	scratches.Put(s)
}

// Options configure one run.
type Options struct {
	// Workers is the number of evaluating goroutines; 0 uses GOMAXPROCS and
	// 1 runs sequentially (deterministic, in position order, on the calling
	// goroutine).
	Workers int
	// Progress, when non-nil, is ticked once per completed evaluation — the
	// live balls-evaluated counter the query flight recorder exposes for
	// in-flight queries. Ticks happen on the evaluating goroutine, one
	// atomic add each; a nil Progress costs one predictable branch, keeping
	// the recorder-off path allocation-free.
	Progress *obs.Progress
	// Span, when recording, is the parent under which each worker records
	// one "eval.worker" child span covering its whole stint, annotated with
	// the number of positions it evaluated. Spans are batched per worker —
	// never per position — so per-ball work stays untouched; a zero Span
	// costs one Recording branch per worker and nothing per ball.
	Span obs.Span
}

// inlineMax is the largest run that is evaluated on the calling goroutine
// whatever Workers says: starting workers, two channels and a scratch per
// worker costs about as much as a handful of restricted balls does
// (EXPERIMENTS.md, "Candidate-sparse dual simulation"), and a Match+ request
// has about five.
const inlineMax = 8

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 || n <= inlineMax {
		w = 1
	}
	return w
}

// Run evaluates positions [0, n) across the pool and feeds every outcome to
// sink on the calling goroutine, in worker completion order. sink returning
// false cancels the remaining work; outcomes already in flight are discarded
// without reaching the sink. Cancellation of ctx is observed between
// evaluations — an evaluation underway runs to completion. Run returns ctx's
// error when the context ended the run (even when the sink stopped it
// first), nil otherwise.
func Run[T any](ctx context.Context, opts Options, n int, eval func(s *Scratch, pos int) T, sink func(pos int, v T) bool) error {
	return run(ctx, opts, n, eval, sink, false)
}

// RunOrdered is Run with the sink invoked in ascending position order,
// whatever order workers complete in. Callers whose admission rule depends
// on arrival order (first-seen dedup, result caps) get sequential semantics
// at parallel speed; an early exit may leave later positions evaluated but
// unreported.
func RunOrdered[T any](ctx context.Context, opts Options, n int, eval func(s *Scratch, pos int) T, sink func(pos int, v T) bool) error {
	return run(ctx, opts, n, eval, sink, true)
}

type outcome[T any] struct {
	pos int
	v   T
}

// endWorkerSpan completes one worker's batched eval span. The Recording
// guard keeps the variadic Attr slice from being built when tracing is off.
func endWorkerSpan(sp obs.Span, evaluated int) {
	if sp.Recording() {
		sp.End(obs.Attr{Key: "balls", Value: int64(evaluated)})
	}
}

func run[T any](ctx context.Context, opts Options, n int, eval func(s *Scratch, pos int) T, sink func(pos int, v T) bool, ordered bool) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := opts.workers(n)
	poolRuns.Inc()
	poolQueueDepth.Add(int64(n))
	var undelivered atomic.Int64 // positions still counted in poolQueueDepth
	undelivered.Store(int64(n))
	// Runs after every worker has retired (the pooled path returns only once
	// the results channel closes), so no further decrements race with it.
	defer func() { poolQueueDepth.Add(-undelivered.Load()) }()
	if workers == 1 {
		s := GetScratch()
		defer s.Release()
		poolWorkersActive.Inc()
		defer poolWorkersActive.Dec()
		// Plain calls, not a deferred closure: capturing the counter would
		// heap-allocate it even with tracing off, which the allocs/run
		// guards forbid.
		wsp := opts.Span.StartChild("eval.worker")
		evaluated := 0
		for pos := 0; pos < n; pos++ {
			if err := ctx.Err(); err != nil {
				endWorkerSpan(wsp, evaluated)
				return err
			}
			poolQueueDepth.Dec()
			undelivered.Add(-1)
			poolWorkersBusy.Inc()
			v := eval(s, pos)
			poolWorkersBusy.Dec()
			poolTasks.Inc()
			evaluated++
			opts.Progress.Tick()
			if !sink(pos, v) {
				break
			}
		}
		endWorkerSpan(wsp, evaluated)
		return ctx.Err()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	tasks := make(chan int)
	results := make(chan outcome[T], workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := GetScratch()
			defer s.Release()
			poolWorkersActive.Inc()
			defer poolWorkersActive.Dec()
			wsp := opts.Span.StartChild("eval.worker")
			evaluated := 0
			defer func() { endWorkerSpan(wsp, evaluated) }()
			for pos := range tasks {
				poolQueueDepth.Dec()
				undelivered.Add(-1)
				poolWorkersBusy.Inc()
				v := eval(s, pos)
				poolWorkersBusy.Dec()
				poolTasks.Inc()
				evaluated++
				opts.Progress.Tick()
				select {
				case results <- outcome[T]{pos: pos, v: v}:
				case <-runCtx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(tasks)
		for pos := 0; pos < n; pos++ {
			select {
			case tasks <- pos:
			case <-runCtx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	stopped := false
	var pending map[int]T
	nextPos := 0
	if ordered {
		pending = make(map[int]T, workers)
	}
	for out := range results {
		if stopped {
			continue // draining after the sink asked to stop
		}
		if !ordered {
			if !sink(out.pos, out.v) {
				stopped = true
				cancel()
			}
			continue
		}
		pending[out.pos] = out.v
		for {
			v, ok := pending[nextPos]
			if !ok {
				break
			}
			delete(pending, nextPos)
			pos := nextPos
			nextPos++
			if !sink(pos, v) {
				stopped = true
				cancel()
				break
			}
		}
	}
	return ctx.Err()
}
