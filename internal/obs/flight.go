package obs

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// How many completed queries the recent and slow rings hold.
const (
	recentSize = 256
	slowSize   = 64
)

// DefaultSlowThreshold is the slow-query threshold of the flight recorder,
// and the tracer's slow keep, when their configs leave it zero.
const DefaultSlowThreshold = time.Second

// Outcomes a completed query can record. They mirror the /v1 error codes:
// cancelled (caller or operator gave up), deadline (the query's own
// deadline expired), error (anything else non-OK).
const (
	OutcomeOK        = "ok"
	OutcomeCancelled = "cancelled"
	OutcomeDeadline  = "deadline"
	OutcomeError     = "error"
)

// FlightConfig configures a FlightRecorder.
type FlightConfig struct {
	// SlowThreshold classifies completed queries whose latency is at or
	// above it as slow: kept in the slow ring, counted in
	// slow_queries_total, and logged through Log with the full stage
	// breakdown. Zero means DefaultSlowThreshold; negative disables slow
	// classification entirely.
	SlowThreshold time.Duration
	// Log, when non-nil, receives one structured warning line per slow
	// query.
	Log *slog.Logger
	// Registry receives the inflight_queries gauge and slow_queries_total
	// counter (Default if nil).
	Registry *Registry
}

// FlightRecorder tracks every in-flight query on the serving path and keeps
// ring buffers of completed ones. It is the data source of the /v1/debug
// route group: the active table answers "what is running right now, in
// which stage, how far along", the recent and slow rings answer "what just
// happened", and Cancel lets an operator kill a runaway query by request
// id. All methods are safe for concurrent use and nil-safe, so a server
// built without EnableDebug passes a nil recorder around and every call
// collapses to one branch.
type FlightRecorder struct {
	slowThreshold time.Duration
	log           *slog.Logger
	inflight      *Gauge
	slowTotal     *Counter

	mu     sync.Mutex
	seq    uint64
	active map[string]*Flight
	recent ring[QueryRecord]
	slow   ring[QueryRecord]
}

// NewFlightRecorder returns a recorder with the given configuration and
// registers its inflight_queries gauge and slow_queries_total counter.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	reg := cfg.Registry
	if reg == nil {
		reg = Default
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	return &FlightRecorder{
		slowThreshold: cfg.SlowThreshold,
		log:           cfg.Log,
		inflight:      reg.Gauge("inflight_queries", "Queries currently registered in the flight recorder."),
		slowTotal:     reg.Counter("slow_queries_total", "Completed queries at or above the slow-query threshold."),
		active:        make(map[string]*Flight),
		recent:        newRing[QueryRecord](recentSize),
		slow:          newRing[QueryRecord](slowSize),
	}
}

// Flight is one in-flight query's registration. The serving path obtains
// one from Start, runs the query, and calls Finish exactly once on every
// exit path. A nil Flight (recorder off) makes both no-ops.
type Flight struct {
	fr       *FlightRecorder
	id       string
	kind     string
	digest   string
	traceID  string
	start    time.Time
	cancel   context.CancelFunc
	stats    *QueryStats
	finished bool // guarded by fr.mu
}

// Start registers a query. id is the request id (a fresh one is minted when
// empty; a duplicate of a still-running query is suffixed to stay
// addressable — the effective id is returned by RequestID). kind names the
// serving path ("match", "stream", "standing"), digest fingerprints the
// query shape, cancel is invoked by FlightRecorder.Cancel, and stats is the
// query's record: the active table reads its live stage and ball count, the
// flight takes its trace id from its root span (none when untraced), and
// Finish files its Stats. A nil recorder returns a nil Flight.
func (fr *FlightRecorder) Start(id, kind, digest string, cancel context.CancelFunc, stats *QueryStats) *Flight {
	if fr == nil {
		return nil
	}
	f := &Flight{fr: fr, kind: kind, digest: digest, start: time.Now(), cancel: cancel, stats: stats}
	if stats != nil && stats.Root.Recording() {
		f.traceID = stats.Root.tr.id.String()
	}
	fr.mu.Lock()
	fr.seq++
	if id == "" {
		id = fmt.Sprintf("q-%d", fr.seq)
	} else if _, taken := fr.active[id]; taken {
		id = fmt.Sprintf("%s#%d", id, fr.seq)
	}
	f.id = id
	fr.active[id] = f
	fr.mu.Unlock()
	fr.inflight.Inc()
	return f
}

// RequestID returns the effective id the flight is registered under.
// Nil-safe (empty for a nil Flight).
func (f *Flight) RequestID() string {
	if f == nil {
		return ""
	}
	return f.id
}

// Finish deregisters the flight and pushes its completed record into the
// recent ring (and the slow ring, counter and log when the latency is at or
// above the threshold). outcome is one of the Outcome constants, errMsg the
// error message for non-OK outcomes, matches the result count delivered.
// Safe to call more than once; only the first call records. Nil-safe.
func (f *Flight) Finish(outcome, errMsg string, matches int) {
	if f == nil {
		return
	}
	fr := f.fr
	lat := time.Since(f.start)
	rec := QueryRecord{
		RequestID: f.id,
		Kind:      f.kind,
		Digest:    f.digest,
		TraceID:   f.traceID,
		Outcome:   outcome,
		Error:     errMsg,
		Start:     f.start,
		Latency:   lat,
		Matches:   matches,
	}
	if f.stats != nil {
		// The coordinating goroutine is done writing by the time it calls
		// Finish, so a plain copy is race-free.
		rec.Stats = f.stats.Stats
	}
	slow := fr.slowThreshold > 0 && lat >= fr.slowThreshold
	fr.mu.Lock()
	if f.finished {
		fr.mu.Unlock()
		return
	}
	f.finished = true
	delete(fr.active, f.id)
	fr.recent.push(rec)
	if slow {
		fr.slow.push(rec)
	}
	fr.mu.Unlock()
	fr.inflight.Dec()
	if slow {
		fr.slowTotal.Inc()
		if fr.log != nil {
			fr.log.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
				slog.String("request_id", rec.RequestID),
				slog.String("kind", rec.Kind),
				slog.String("digest", rec.Digest),
				slog.String("trace_id", rec.TraceID),
				slog.String("outcome", rec.Outcome),
				slog.Float64("latency_ms", ms(lat)),
				slog.Int("matches", rec.Matches),
				slog.Int("candidate_centers", rec.Stats.CandidateCenters),
				slog.Int64("balls_built", rec.Stats.BallsBuilt),
				slog.Int64("ball_nodes", rec.Stats.BallNodes),
				slog.Int64("ball_edges", rec.Stats.BallEdges),
				slog.Float64("prepare_ms", ms(rec.Stats.Prepare)),
				slog.Float64("filter_ms", ms(rec.Stats.Filter)),
				slog.Float64("eval_ms", ms(rec.Stats.Eval)),
				slog.Float64("merge_ms", ms(rec.Stats.Merge)),
			)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Cancel cancels the in-flight query registered under id and reports
// whether it was found. The query itself winds down asynchronously — it
// observes its context, fails with a cancellation error, and records
// outcome cancelled through its own Finish. Nil-safe (always false).
func (fr *FlightRecorder) Cancel(id string) bool {
	if fr == nil {
		return false
	}
	fr.mu.Lock()
	f := fr.active[id]
	fr.mu.Unlock()
	if f == nil || f.cancel == nil {
		return false
	}
	f.cancel()
	return true
}

// ActiveQuery is one row of the in-flight table: identity plus the live
// stage and ball count read from the query's record.
type ActiveQuery struct {
	RequestID string
	Kind      string
	Digest    string
	// TraceID names the query's distributed trace, the pivot into
	// /v1/debug/traces/{trace_id} once the trace is kept. Empty when
	// tracing is off.
	TraceID string
	Start   time.Time
	Elapsed time.Duration
	Stage   Stage
	Balls   int64
}

// Active snapshots the in-flight table, oldest query first. Nil-safe.
func (fr *FlightRecorder) Active() []ActiveQuery {
	if fr == nil {
		return nil
	}
	now := time.Now()
	fr.mu.Lock()
	out := make([]ActiveQuery, 0, len(fr.active))
	for _, f := range fr.active {
		out = append(out, ActiveQuery{
			RequestID: f.id,
			Kind:      f.kind,
			Digest:    f.digest,
			TraceID:   f.traceID,
			Start:     f.start,
			Elapsed:   now.Sub(f.start),
			Stage:     f.stats.Stage(),
			Balls:     f.stats.Balls(),
		})
	}
	fr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].RequestID < out[j].RequestID
	})
	return out
}

// InFlight returns the current size of the active table. Nil-safe.
func (fr *FlightRecorder) InFlight() int {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return len(fr.active)
}

// QueryRecord is one completed query: identity, outcome, latency, and the
// full stage trace when the query was traced (Stats is the zero value
// otherwise — BallsBuilt 0 with a non-zero Latency tells them apart only
// for queries that evaluated no balls, so /v1/debug always traces).
type QueryRecord struct {
	RequestID string
	Kind      string
	Digest    string
	// TraceID links the record to its trace in the kept-trace store (when
	// the trace survived tail sampling). Empty when tracing is off.
	TraceID string
	Outcome string
	Error   string
	Start   time.Time
	Latency time.Duration
	Matches int
	Stats   Stats
}

// Recent returns the completed-query ring, newest first. Nil-safe.
func (fr *FlightRecorder) Recent() []QueryRecord {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.recent.snapshot()
}

// Slow returns the slow-query ring, newest first. Nil-safe.
func (fr *FlightRecorder) Slow() []QueryRecord {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.slow.snapshot()
}
