package obs

import (
	"sync/atomic"
	"time"
)

// Stage names one phase of a query's execution, following the paper's cost
// model: prepare (validation plus query minimization), filter (candidate
// center selection or the global dual-simulation filter of Match+), eval
// (the parallel ball-evaluation phase — the dominant term, dQ-hop BFS per
// center; ball outcomes are deduplicated and their relations expanded as
// they arrive), merge (canonical ordering, the result-cache store, ranking).
type Stage int32

// Stages in execution order. A query may revisit StageEval after StageMerge
// only on batch paths; single queries progress monotonically.
const (
	StagePrepare Stage = iota
	StageFilter
	StageEval
	StageMerge
)

// String returns the wire name of the stage, as served by /v1/debug.
func (s Stage) String() string {
	switch s {
	case StagePrepare:
		return "prepare"
	case StageFilter:
		return "filter"
	case StageEval:
		return "eval"
	case StageMerge:
		return "merge"
	default:
		return "unknown"
	}
}

// Stats is the flat half of a query's record: where the wall time went (the
// paper's cost model — ball construction dominated by dQ-hop BFS, then
// dual-simulation refinement) and how much graph the query touched. It is
// what query_stats serialises, what the slow-query line logs and what the
// Recorder files per finished query: a plain value.
type Stats struct {
	// BallsBuilt counts balls actually constructed and evaluated. Under an
	// early exit (Limit, cancellation) this can be less than
	// CandidateCenters; outcomes discarded mid-flight are not counted. While
	// the query runs it is written atomically and read through
	// QueryStats.Balls. It is a plain int64, not an atomic.Int64, so that
	// Stats stays a value the Recorder files by copy; it comes first
	// so the 64-bit atomic is aligned on 32-bit platforms too.
	BallsBuilt int64
	// CandidateCenters is how many centers survived prefiltering (the
	// global dual-simulation filter, or the label precheck of a standing
	// query's re-evaluation) and were scheduled for ball evaluation.
	CandidateCenters int
	// BallNodes and BallEdges total the sizes of every ball as evaluated:
	// the engine builds Ĝ[v, r] restricted to the query's candidate nodes
	// (plus the center), so these count candidates inside the balls and the
	// edges between them, not ball members — the work refinement saw, while
	// the BFS that decided membership still walked every member. The balls
	// Engine.EvalCenters builds for standing queries are restricted the same
	// way (to the nodes carrying a pattern label).
	BallNodes int64
	BallEdges int64
	// Prepare is validation plus query minimization; Filter is the global
	// dual-simulation filter, which selects the candidate centers; Eval is
	// the parallel ball-evaluation phase, dedup and relation expansion
	// included; Merge is sorting, the result-cache store and ranking after
	// evaluation.
	Prepare time.Duration
	Filter  time.Duration
	Eval    time.Duration
	Merge   time.Duration

	// PlanCacheOutcome is the result-cache outcome of an unlimited Match
	// ("hit" or "miss"), empty when the cache was not consulted (no
	// planner, a limit, a center slice or a stream).
	PlanCacheOutcome string
}

// QueryStats is the one per-query observation record. The engine fills one
// when QueryOptions.Trace points at it; the serving path allocates one when
// the request asked for "stats": true, the Recorder is on, or the
// request is traced. Every view of the query reads it: query_stats and the
// Recorder's records serialise its Stats, /v1/debug reads its live
// stage and ball count while the query runs, and its stage spans land under
// Root. Collection must never change results — a recorded query and an
// unrecorded one answer byte-identically.
//
// The engine marks each stage with one Begin … End pair, which publishes
// the stage, times it with one clock reading for the flat duration and the
// span alike, and opens and ends the stage span. Every method is nil-safe,
// so an unrecorded query pays one branch per call.
//
// A QueryStats is written by the query's coordinating goroutine only (the
// exec sink runs on the calling goroutine); Stage and Balls are the reads
// other goroutines may make while it runs. It must not be copied or shared
// across concurrent queries.
type QueryStats struct {
	Stats

	// Root is the request's root span, the parent of the stage spans and of
	// a router's fan-out spans; zero (inert) when the request is untraced.
	Root Span

	stage atomic.Int32 // the stage last begun, as /v1/debug serves it
	open  Stage        // the stage End closes
	start time.Time    // when it began: its span's start, its duration's origin
	span  Span         // its span under Root; inert when untraced
}

// Begin opens stage s: publishes it to the live /v1/debug view and opens
// its span, named after the stage, under Root. Nil-safe.
func (qs *QueryStats) Begin(s Stage) { qs.BeginAs(s, s.String()) }

// BeginAs is Begin with the stage span named span (a cache hit is the merge
// stage under "plan.hit"). Nil-safe.
func (qs *QueryStats) BeginAs(s Stage, span string) {
	if qs == nil {
		return
	}
	qs.stage.Store(int32(s))
	qs.open = s
	qs.start = time.Now()
	qs.span = qs.Root.childAt(span, qs.start)
}

// End closes the stage Begin opened. One clock reading gives the stage's
// duration, which is added to its Stats field and ends its span with status
// ("" for success, else "cancelled", "deadline" or "error") and attrs.
// Nil-safe; attrs are copied only when the span records, so an untraced
// query passes them without allocating.
func (qs *QueryStats) End(status string, attrs ...Attr) {
	if qs == nil {
		return
	}
	d := time.Since(qs.start)
	switch qs.open {
	case StagePrepare:
		qs.Prepare += d
	case StageFilter:
		qs.Filter += d
	case StageEval:
		qs.Eval += d
	case StageMerge:
		qs.Merge += d
	}
	if qs.span.Recording() {
		qs.span.finish(status, append([]Attr(nil), attrs...), d)
	}
}

// Span returns the open stage's span, the parent the exec pool records its
// eval.worker spans under; inert when untraced. Nil-safe.
func (qs *QueryStats) Span() Span {
	if qs == nil {
		return Span{}
	}
	return qs.span
}

// Stage returns the stage last begun (StagePrepare before any). Safe to call
// while the query runs. Nil-safe.
func (qs *QueryStats) Stage() Stage {
	if qs == nil {
		return StagePrepare
	}
	return Stage(qs.stage.Load())
}

// ObserveBall records one evaluated ball. Nil-safe, so the engine's sink can
// call it unconditionally on the unrecorded path.
func (qs *QueryStats) ObserveBall(nodes, edges int) {
	if qs == nil {
		return
	}
	atomic.AddInt64(&qs.BallsBuilt, 1)
	qs.BallNodes += int64(nodes)
	qs.BallEdges += int64(edges)
}

// Balls returns BallsBuilt as it stands. Safe to call while the query runs.
// Nil-safe.
func (qs *QueryStats) Balls() int64 {
	if qs == nil {
		return 0
	}
	return atomic.LoadInt64(&qs.BallsBuilt)
}
