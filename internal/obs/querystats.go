package obs

import (
	"sync/atomic"
	"time"
)

// Stage names one phase of a query's execution, following the paper's cost
// model: prepare (validation plus query minimization), filter (candidate
// center selection or the global dual-simulation filter of Match+), eval
// (the parallel ball-evaluation phase — the dominant term, dQ-hop BFS per
// center), merge (dedup, ordering, relation expansion, ranking).
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

// Progress is the live, concurrency-safe view of one in-flight query: the
// stage it is currently in and a balls-evaluated counter ticked by the exec
// pool's workers. The flight recorder attaches one Progress per tracked
// query and the /v1/debug handlers read it while the query runs; both sides
// touch only the two atomics below. All methods are nil-safe no-ops so the
// serving path can publish progress unconditionally — an untracked query
// pays one predictable branch and allocates nothing.
type Progress struct {
	stage atomic.Int32
	balls atomic.Int64
}

// SetStage publishes a stage transition. Nil-safe.
func (p *Progress) SetStage(s Stage) {
	if p != nil {
		p.stage.Store(int32(s))
	}
}

// Stage returns the last published stage (StagePrepare before any
// transition). Nil-safe.
func (p *Progress) Stage() Stage {
	if p == nil {
		return StagePrepare
	}
	return Stage(p.stage.Load())
}

// Tick records one evaluated ball. Called from exec worker goroutines; a
// single atomic add. Nil-safe.
func (p *Progress) Tick() {
	if p != nil {
		p.balls.Add(1)
	}
}

// Balls returns the number of balls evaluated so far. Nil-safe.
func (p *Progress) Balls() int64 {
	if p == nil {
		return 0
	}
	return p.balls.Load()
}

// QueryStats is the per-query stage trace of one match execution: where the
// wall time went (the paper's cost model — ball construction dominated by
// dQ-hop BFS, then dual-simulation refinement) and how much graph the query
// actually touched. The engine fills one when QueryOptions.Trace points at
// it; the /v1 endpoints request that when the QuerySpec carries
// "stats": true. Collection must never change results — a traced query and
// an untraced one answer byte-identically.
//
// A QueryStats is written by the query's coordinating goroutine only (the
// exec sink runs on the calling goroutine) and must not be shared across
// concurrent queries.
type QueryStats struct {
	// CandidateCenters is how many centers survived prefiltering (label
	// index or global dual-simulation filter) and were scheduled for ball
	// evaluation.
	CandidateCenters int
	// BallsBuilt counts balls actually constructed and evaluated. Under an
	// early exit (Limit, cancellation) this can be less than
	// CandidateCenters; outcomes discarded mid-flight are not counted.
	BallsBuilt int
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
	// dual-simulation filter (Match+) or candidate-center selection; Eval is
	// the parallel ball-evaluation phase; Merge is dedup, sorting, relation
	// expansion and ranking after evaluation.
	Prepare time.Duration
	Filter  time.Duration
	Eval    time.Duration
	Merge   time.Duration

	// Planner accounting, filled only on planned queries
	// (engine.QueryOptions.Planner set). PlanCandidatesBefore is the center
	// count entering the pruning filters; PlanPrunedDegree and
	// PlanPrunedAnchor split the centers each filter removed.
	// PlanCacheOutcome is the result-cache outcome of an unlimited Match
	// ("hit", "refresh", "contained", "miss"), empty when the cache was not
	// consulted.
	PlanCandidatesBefore int
	PlanPrunedDegree     int
	PlanPrunedAnchor     int
	PlanCacheOutcome     string

	// Progress, when non-nil, additionally receives live atomic updates —
	// stage transitions and a per-ball counter — readable from other
	// goroutines while the query runs. The flight recorder attaches one in
	// Flight creation; a plain "stats": true trace leaves it nil. Progress
	// is the only field of a QueryStats that may be touched concurrently.
	Progress *Progress

	// Spans, when non-nil, receives one hierarchical span per engine stage
	// in addition to the flat durations above, parented under Parent (the
	// request's root span on the serving path). StartSpan reads both;
	// leaving Spans nil keeps the whole span path at one branch per stage.
	Spans  *Trace
	Parent SpanID
}

// StartSpan opens a stage span on the query's trace, parented under the
// request's root span. A nil receiver or a nil Spans returns a zero Span
// whose methods are no-ops, so the engine marks stages unconditionally.
func (qs *QueryStats) StartSpan(name string) Span {
	if qs == nil || qs.Spans == nil {
		return Span{}
	}
	return qs.Spans.StartSpan(name, qs.Parent)
}

// EnterStage publishes a stage transition to the live progress view. A nil
// receiver or a nil Progress is a no-op, so the engine can mark transitions
// unconditionally on every path.
func (qs *QueryStats) EnterStage(s Stage) {
	if qs != nil {
		qs.Progress.SetStage(s)
	}
}

// Live returns the live progress view to thread into the exec pool; nil
// when the query is untracked. Nil-safe.
func (qs *QueryStats) Live() *Progress {
	if qs == nil {
		return nil
	}
	return qs.Progress
}

// ObserveBall records one evaluated ball. A nil receiver is a no-op, so the
// engine's sink can call it unconditionally on the stats-off path.
func (qs *QueryStats) ObserveBall(nodes, edges int) {
	if qs == nil {
		return
	}
	qs.BallsBuilt++
	qs.BallNodes += int64(nodes)
	qs.BallEdges += int64(edges)
}
