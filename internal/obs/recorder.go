package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// recordsHeld is how many finished requests the recorder's ring holds. It is
// the one retention window of every /v1/debug view: a slow query or a kept
// trace leaves them once recordsHeld later records have been filed.
const recordsHeld = 256

// DefaultSlowThreshold is the slow threshold of a RecorderConfig that
// leaves it zero.
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

// RecorderConfig configures a Recorder.
type RecorderConfig struct {
	// SlowThreshold classifies finished queries whose latency is at or
	// above it as slow (counted in slow_queries_total, logged through Log
	// with the full stage breakdown, served by the slow view), and keeps
	// every trace whose root span runs at least this long. Zero means
	// DefaultSlowThreshold; negative disables both.
	SlowThreshold time.Duration
	// SampleRate is the head-sampling probability in [0, 1]: the fraction
	// of traces kept regardless of latency or outcome. Sampling is decided
	// when the trace starts so the decision is stable across the request,
	// but applied at the tail, together with the slow and error keeps.
	SampleRate float64
	// Log, when non-nil, receives one warning line per slow query and one
	// line per kept trace.
	Log *slog.Logger
	// Registry receives the recorder's gauge, counters and span-duration
	// histograms (Default if nil).
	Registry *Registry
}

// Recorder is the data source of the /v1/debug route group. It tracks
// every in-flight query (Flight), mints request traces with tail-based
// sampling (Trace), and files finished requests into one overwrite-oldest
// ring of Records: a query's record when its flight finishes, a trace's
// spans when tail sampling keeps it, both on the same record when they are
// the same request. The recent, slow and trace views are filters over that
// ring. All methods are safe for concurrent use and nil-safe, so a server
// built without EnableDebug passes a nil recorder around and every call
// collapses to one branch.
type Recorder struct {
	slowThreshold time.Duration
	sampleRate    float64
	log           *slog.Logger

	inflight     *Gauge
	slowTotal    *Counter
	spansTotal   *Counter
	keptTotal    *Counter
	droppedTotal *Counter
	reg          *Registry

	// durations caches the per-stage span_duration_seconds histograms so
	// span completion does not pay a registry lookup (which allocates its
	// label slice) per span.
	durMu     sync.RWMutex
	durations map[string]*Histogram

	// rng is a splitmix64 state seeded from crypto/rand, advanced with one
	// atomic add per id — cheap enough to mint ids on the request path.
	rng atomic.Uint64

	mu     sync.Mutex
	seq    uint64 // flights started, for minted request ids
	filed  uint64 // records filed, for Record.seq
	active map[string]*Flight
	ring   ring[Record]
}

// NewRecorder returns a recorder with the given configuration and registers
// its inflight_queries gauge and its slow_queries_total, trace_spans_total,
// traces_kept_total and traces_dropped_total counters.
func NewRecorder(cfg RecorderConfig) *Recorder {
	reg := cfg.Registry
	if reg == nil {
		reg = Default
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	rc := &Recorder{
		slowThreshold: cfg.SlowThreshold,
		sampleRate:    min(max(cfg.SampleRate, 0), 1),
		log:           cfg.Log,
		inflight:      reg.Gauge("inflight_queries", "Queries currently registered in the flight recorder."),
		slowTotal:     reg.Counter("slow_queries_total", "Completed queries at or above the slow-query threshold."),
		spansTotal: reg.Counter("trace_spans_total",
			"spans recorded into completed traces, kept or dropped"),
		keptTotal: reg.Counter("traces_kept_total",
			"completed traces kept by tail sampling (slow, errored or sampled)"),
		droppedTotal: reg.Counter("traces_dropped_total",
			"completed traces dropped by tail sampling"),
		reg:       reg,
		durations: make(map[string]*Histogram),
		active:    make(map[string]*Flight),
		ring:      newRing[Record](recordsHeld),
	}
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		rc.rng.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		rc.rng.Store(uint64(time.Now().UnixNano()))
	}
	return rc
}

// rand64 returns the next value of the recorder's lock-free splitmix64
// sequence; never zero.
func (rc *Recorder) rand64() uint64 {
	for {
		x := rc.rng.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// duration returns the span_duration_seconds histogram for one span name,
// creating it on first use.
func (rc *Recorder) duration(name string) *Histogram {
	rc.durMu.RLock()
	h := rc.durations[name]
	rc.durMu.RUnlock()
	if h != nil {
		return h
	}
	rc.durMu.Lock()
	defer rc.durMu.Unlock()
	if h = rc.durations[name]; h == nil {
		h = rc.reg.Histogram("span_duration_seconds",
			"span durations by span name, across kept and dropped traces",
			SpanBuckets(), "span", name)
		rc.durations[name] = h
	}
	return h
}

// Record is one finished request: its identity, the query part its flight
// filed, and the trace part tail sampling kept. A query whose trace was
// dropped has no trace part; a kept request that ran no query (an update, a
// probe, a request refused before its query started) has no query part.
type Record struct {
	RequestID string
	// TraceID names the request's trace; zero when the request was
	// untraced. A query's record carries it whether or not the trace was
	// kept.
	TraceID TraceID
	Query   QueryPart
	Trace   TracePart

	seq uint64 // filing order; tells a live ring slot from an overwritten one
}

// QueryPart is what a finished query's flight files: what ran, how it
// ended, how long it took, and the query's Stats.
type QueryPart struct {
	Kind    string
	Digest  string
	Outcome string
	Error   string
	Start   time.Time
	Latency time.Duration
	Matches int
	// Slow reports that Latency reached the recorder's slow threshold.
	Slow  bool
	Stats Stats
}

// TracePart is a kept trace: the tail-keep reason and the flat span list
// (parent links rebuild the tree).
type TracePart struct {
	RootName string
	// Parent is the remote parent span id from the incoming traceparent,
	// zero when the trace was minted locally.
	Parent SpanID
	// Root is the root span's id — the anchor for tree assembly.
	Root     SpanID
	Reason   string // "slow", "error" or "sampled"
	Start    time.Time
	Duration time.Duration
	Spans    []SpanRecord
}

// HasQuery reports whether a flight filed the record's query part.
func (r *Record) HasQuery() bool { return !r.Query.Start.IsZero() }

// Kept reports whether the record holds a kept trace.
func (r *Record) Kept() bool { return r.Trace.Reason != "" }

// file returns the record the request traced by tr already filed, when the
// ring still holds it, and files a new one otherwise. A nil tr (an untraced
// query) always files a new record. The caller holds rc.mu and fills in the
// part it finished.
func (rc *Recorder) file(tr *Trace) *Record {
	if tr != nil && tr.filed != nil && tr.filed.seq == tr.seq {
		return tr.filed
	}
	rc.filed++
	rec := rc.ring.push(Record{seq: rc.filed})
	if tr != nil {
		rec.TraceID = tr.id
		tr.filed, tr.seq = rec, rc.filed
	}
	return rec
}

// Records copies the held records keep accepts, newest first. Nil-safe.
func (rc *Recorder) Records(keep func(*Record) bool) []Record {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var out []Record
	for i := 0; i < rc.ring.n; i++ {
		if rec := rc.ring.at(i); keep(rec) {
			out = append(out, *rec)
		}
	}
	return out
}

// Lookup returns the newest held record whose trace, with the given
// 32-hex-character id, was kept. Nil-safe (never found).
func (rc *Recorder) Lookup(idHex string) (Record, bool) {
	var id TraceID
	if rc == nil || len(idHex) != 32 {
		return Record{}, false
	}
	if _, err := hex.Decode(id[:], []byte(idHex)); err != nil {
		return Record{}, false
	}
	recs := rc.Records(func(r *Record) bool { return r.Kept() && r.TraceID == id })
	if len(recs) == 0 {
		return Record{}, false
	}
	return recs[0], true
}

// Flight is one in-flight query's registration. The serving path obtains
// one from StartFlight, runs the query, and calls Finish on every exit
// path. A nil Flight (recorder off) makes both no-ops.
type Flight struct {
	rc       *Recorder
	id       string
	kind     string
	digest   string
	trace    *Trace // the request's trace; nil when untraced
	start    time.Time
	cancel   context.CancelFunc
	stats    *QueryStats
	finished bool // guarded by rc.mu
}

// StartFlight registers a query. id is the request id (a fresh one is
// minted when empty; a duplicate of a still-running query is suffixed to
// stay addressable — the effective id is returned by RequestID). kind names
// the serving path ("match", "stream", "standing"), digest fingerprints the
// query shape, cancel is invoked by Recorder.Cancel, and stats is the
// query's record: the active table reads its live stage and ball count, the
// flight takes its trace from its root span (none when untraced), and
// Finish files its Stats. A nil recorder returns a nil Flight.
func (rc *Recorder) StartFlight(id, kind, digest string, cancel context.CancelFunc, stats *QueryStats) *Flight {
	if rc == nil {
		return nil
	}
	f := &Flight{rc: rc, kind: kind, digest: digest, start: time.Now(), cancel: cancel, stats: stats}
	if stats != nil {
		f.trace = stats.Root.tr
	}
	rc.mu.Lock()
	rc.seq++
	if id == "" {
		id = fmt.Sprintf("q-%d", rc.seq)
	} else if _, taken := rc.active[id]; taken {
		id = fmt.Sprintf("%s#%d", id, rc.seq)
	}
	f.id = id
	rc.active[id] = f
	rc.mu.Unlock()
	rc.inflight.Inc()
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

// Finish deregisters the flight and files its query part: on the record
// its trace already filed, if any, else on a new one. At or above the slow
// threshold it also counts and logs the query. outcome is one of the
// Outcome constants, errMsg the error message for non-OK outcomes, matches
// the result count delivered. Safe to call more than once; only the first
// call records. Nil-safe.
func (f *Flight) Finish(outcome, errMsg string, matches int) {
	if f == nil {
		return
	}
	rc := f.rc
	lat := time.Since(f.start)
	part := QueryPart{
		Kind:    f.kind,
		Digest:  f.digest,
		Outcome: outcome,
		Error:   errMsg,
		Start:   f.start,
		Latency: lat,
		Matches: matches,
		Slow:    rc.slowThreshold > 0 && lat >= rc.slowThreshold,
	}
	if f.stats != nil {
		// The coordinating goroutine is done writing by the time it calls
		// Finish, so a plain copy is race-free.
		part.Stats = f.stats.Stats
	}
	rc.mu.Lock()
	if f.finished {
		rc.mu.Unlock()
		return
	}
	f.finished = true
	delete(rc.active, f.id)
	rec := rc.file(f.trace)
	rec.RequestID = f.id
	rec.Query = part
	traceID := rec.TraceID
	rc.mu.Unlock()
	rc.inflight.Dec()
	if part.Slow {
		rc.slowTotal.Inc()
		if rc.log != nil {
			rc.log.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
				slog.String("request_id", f.id),
				slog.String("kind", part.Kind),
				slog.String("digest", part.Digest),
				slog.String("trace_id", traceIDString(traceID)),
				slog.String("outcome", part.Outcome),
				slog.Float64("latency_ms", ms(lat)),
				slog.Int("matches", part.Matches),
				slog.Int("candidate_centers", part.Stats.CandidateCenters),
				slog.Int64("balls_built", part.Stats.BallsBuilt),
				slog.Int64("ball_nodes", part.Stats.BallNodes),
				slog.Int64("ball_edges", part.Stats.BallEdges),
				slog.Float64("prepare_ms", ms(part.Stats.Prepare)),
				slog.Float64("filter_ms", ms(part.Stats.Filter)),
				slog.Float64("eval_ms", ms(part.Stats.Eval)),
				slog.Float64("merge_ms", ms(part.Stats.Merge)),
			)
		}
	}
}

// traceIDString renders a trace id, empty for the zero id of an untraced
// request.
func traceIDString(id TraceID) string {
	if id.IsZero() {
		return ""
	}
	return id.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Cancel cancels the in-flight query registered under id and reports
// whether it was found. The query itself winds down asynchronously — it
// observes its context, fails with a cancellation error, and records
// outcome cancelled through its own Finish. Nil-safe (always false).
func (rc *Recorder) Cancel(id string) bool {
	if rc == nil {
		return false
	}
	rc.mu.Lock()
	f := rc.active[id]
	rc.mu.Unlock()
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
func (rc *Recorder) Active() []ActiveQuery {
	if rc == nil {
		return nil
	}
	now := time.Now()
	rc.mu.Lock()
	out := make([]ActiveQuery, 0, len(rc.active))
	for _, f := range rc.active {
		out = append(out, ActiveQuery{
			RequestID: f.id,
			Kind:      f.kind,
			Digest:    f.digest,
			TraceID:   traceIDString(f.trace.ID()),
			Start:     f.start,
			Elapsed:   now.Sub(f.start),
			Stage:     f.stats.Stage(),
			Balls:     f.stats.Balls(),
		})
	}
	rc.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].RequestID < out[j].RequestID
	})
	return out
}

// InFlight returns the current size of the active table. Nil-safe.
func (rc *Recorder) InFlight() int {
	if rc == nil {
		return 0
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.active)
}
