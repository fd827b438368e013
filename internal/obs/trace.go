package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// keptTraces is how many kept traces the tracer holds, newest first.
const keptTraces = 128

// TraceparentHeader is the W3C trace-context header spans propagate in,
// both directions: an incoming traceparent adopts the caller's trace id and
// parent span, and every traced response echoes the header with the
// server's root span id — the handle a caller (or the future scatter/gather
// router) stitches cross-process traces with.
const TraceparentHeader = "traceparent"

// TraceID identifies one trace: 16 random bytes, rendered as 32 lowercase
// hex characters on the wire.
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace: 8 bytes, 16 hex characters on
// the wire.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// FlagSampled is the traceparent flag bit carried by requests whose caller
// already decided to sample the trace; the server keeps such traces
// unconditionally so cross-process traces do not lose their server half.
const FlagSampled byte = 0x01

// TraceContext is the wire state of the W3C trace-context traceparent
// header: which trace the request belongs to, the caller's span, and the
// sampling decision so far. The zero value means "no incoming context" and
// makes Tracer.Start mint a fresh trace.
type TraceContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// Sampled reports whether the caller already decided to keep this trace.
func (tc TraceContext) Sampled() bool { return tc.Flags&FlagSampled != 0 }

// String renders the context in traceparent form:
// "00-<32 hex trace id>-<16 hex span id>-<2 hex flags>".
func (tc TraceContext) String() string {
	var buf [55]byte
	const hexDigits = "0123456789abcdef"
	buf[0], buf[1], buf[2] = '0', '0', '-'
	hex.Encode(buf[3:35], tc.TraceID[:])
	buf[35] = '-'
	hex.Encode(buf[36:52], tc.SpanID[:])
	buf[52] = '-'
	buf[53] = hexDigits[tc.Flags>>4]
	buf[54] = hexDigits[tc.Flags&0xf]
	return string(buf[:])
}

// ParseTraceparent parses a traceparent header. It accepts any version
// except the forbidden "ff" (future versions may append fields after the
// flags, which are ignored), requires lowercase hex throughout per the W3C
// spec, and rejects all-zero trace and span ids. ok is false for anything
// malformed; callers fall back to minting a fresh trace — a bad header must
// never fail the request it travelled with.
func ParseTraceparent(s string) (tc TraceContext, ok bool) {
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, false
	}
	if s[0] == 'f' && s[1] == 'f' {
		return TraceContext{}, false // version ff is forbidden
	}
	if !isLowerHex(s[:2]) {
		return TraceContext{}, false
	}
	if s[:2] == "00" && len(s) != 55 {
		return TraceContext{}, false // version 00 has no trailing fields
	}
	if len(s) > 55 && s[55] != '-' {
		return TraceContext{}, false // later versions append "-" + fields
	}
	if !isLowerHex(s[3:35]) || !isLowerHex(s[36:52]) || !isLowerHex(s[53:55]) {
		return TraceContext{}, false
	}
	if _, err := hex.Decode(tc.TraceID[:], []byte(s[3:35])); err != nil {
		return TraceContext{}, false
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(s[36:52])); err != nil {
		return TraceContext{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return TraceContext{}, false
	}
	tc.Flags = flags[0]
	if tc.TraceID.IsZero() || tc.SpanID.IsZero() {
		return TraceContext{}, false
	}
	return tc, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// TraceConfig configures a Tracer.
type TraceConfig struct {
	// SampleRate is the head-sampling probability in [0, 1]: the fraction
	// of traces kept regardless of latency or outcome. Sampling is decided
	// when the trace starts so the decision is stable across the request,
	// but applied at the tail, together with the slow and error keeps.
	SampleRate float64
	// SlowThreshold keeps every trace whose root span runs at least this
	// long — the same semantics (and, on the serving path, the same value)
	// as the flight recorder's slow-query threshold. Zero means
	// DefaultSlowThreshold; negative disables the slow keep.
	SlowThreshold time.Duration
	// Log, when non-nil, receives one structured line per kept trace.
	Log *slog.Logger
	// Registry receives the trace counters and per-stage span-duration
	// histograms (Default if nil).
	Registry *Registry
}

// SpanBuckets are the span_duration_seconds histogram buckets: 5µs to 60s.
// DefBuckets starts at 100µs — right for whole HTTP requests, useless for
// engine stages: an SDK load run's server-side sums put the mean /v1/match handler
// at ≈0.96ms and the mean /v1/update at ≈0.11ms, so the prepare, filter and
// merge stages inside them run tens of microseconds and whole maintenance
// spans land near 100µs. The sub-100µs decades give those spans resolution;
// the top of the range matches DefBuckets so root spans bucket identically
// in either histogram.
func SpanBuckets() []float64 {
	return []float64{0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025,
		0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30, 60}
}

// Tracer mints spans into per-trace trees and applies tail-based sampling:
// every span of a trace is buffered until the root span ends, then the
// whole tree is kept — queryable through Kept and Lookup, behind
// GET /v1/debug/traces on the serving path — when the trace was slow,
// errored, explicitly sampled by the caller, or head-sampled at SampleRate;
// dropped traces release their spans without further work. All methods are
// safe for concurrent use and nil-safe, so an untraced deployment passes a
// nil Tracer and every call collapses to one branch.
type Tracer struct {
	sampleRate float64
	slow       time.Duration
	log        *slog.Logger

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

	mu   sync.Mutex
	kept ring[TraceRecord]
}

// NewTracer returns a tracer with the given configuration and registers
// its trace_spans_total, traces_kept_total and traces_dropped_total
// counters.
func NewTracer(cfg TraceConfig) *Tracer {
	reg := cfg.Registry
	if reg == nil {
		reg = Default
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	if cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	t := &Tracer{
		sampleRate: cfg.SampleRate,
		slow:       cfg.SlowThreshold,
		log:        cfg.Log,
		spansTotal: reg.Counter("trace_spans_total",
			"spans recorded into completed traces, kept or dropped"),
		keptTotal: reg.Counter("traces_kept_total",
			"completed traces kept by tail sampling (slow, errored or sampled)"),
		droppedTotal: reg.Counter("traces_dropped_total",
			"completed traces dropped by tail sampling"),
		reg:       reg,
		durations: make(map[string]*Histogram),
		kept:      newRing[TraceRecord](keptTraces),
	}
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		t.rng.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		t.rng.Store(uint64(time.Now().UnixNano()))
	}
	return t
}

// rand64 returns the next value of the tracer's lock-free splitmix64
// sequence; never zero.
func (t *Tracer) rand64() uint64 {
	for {
		x := t.rng.Add(0x9e3779b97f4a7c15)
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
func (t *Tracer) duration(name string) *Histogram {
	t.durMu.RLock()
	h := t.durations[name]
	t.durMu.RUnlock()
	if h != nil {
		return h
	}
	t.durMu.Lock()
	defer t.durMu.Unlock()
	if h = t.durations[name]; h == nil {
		h = t.reg.Histogram("span_duration_seconds",
			"span durations by span name, across kept and dropped traces",
			SpanBuckets(), "span", name)
		t.durations[name] = h
	}
	return h
}

// Start opens a new trace with its root span. parent is the incoming
// trace context (the zero value when the request carried none): its trace
// id is adopted, its span id becomes the root span's parent, and its
// sampled flag forces the tail keep. name names the root span (the route
// pattern on the serving path) and requestID links the trace to the flight
// recorder and access log. The head-sampling draw also happens here, so
// one trace's keep decision is stable however many spans it records. A nil
// tracer returns a nil Trace and a zero Span, both inert.
func (t *Tracer) Start(name, requestID string, parent TraceContext) (*Trace, Span) {
	if t == nil {
		return nil, Span{}
	}
	tr := &Trace{
		tracer:    t,
		requestID: requestID,
		parent:    parent.SpanID,
		sampled:   parent.Sampled(),
		spans:     make([]SpanRecord, 0, 8),
	}
	if parent.TraceID.IsZero() {
		binary.LittleEndian.PutUint64(tr.id[:8], t.rand64())
		binary.LittleEndian.PutUint64(tr.id[8:], t.rand64())
	} else {
		tr.id = parent.TraceID
	}
	if !tr.sampled && t.sampleRate > 0 {
		// 53-bit uniform draw, the float64 precision of the unit interval.
		draw := float64(t.rand64()>>11) / float64(1<<53)
		tr.sampled = draw < t.sampleRate
	}
	root := Span{tr: tr, parent: parent.SpanID, name: name, start: time.Now()}
	binary.LittleEndian.PutUint64(root.id[:], t.rand64())
	tr.root = root.id
	return tr, root
}

// finish applies the tail decision once a trace's root span has ended.
func (t *Tracer) finish(tr *Trace, rootDur time.Duration) {
	tr.mu.Lock()
	spans := tr.spans
	tr.spans = nil // further End calls are dropped
	tr.mu.Unlock()

	t.spansTotal.Add(int64(len(spans)))
	for i := range spans {
		t.duration(spans[i].Name).Observe(spans[i].Duration.Seconds())
	}

	reason := ""
	switch {
	case tr.errs.Load() > 0:
		reason = "error"
	case t.slow > 0 && rootDur >= t.slow:
		reason = "slow"
	case tr.sampled:
		reason = "sampled"
	}
	if reason == "" {
		t.droppedTotal.Inc()
		return
	}
	rec := TraceRecord{
		ID:        tr.id,
		RequestID: tr.requestID,
		Parent:    tr.parent,
		Root:      tr.root,
		Reason:    reason,
		Duration:  rootDur,
		Spans:     spans,
	}
	for i := range spans {
		if spans[i].ID == tr.root {
			rec.Start = spans[i].Start
			rec.RootName = spans[i].Name
			break
		}
	}
	t.mu.Lock()
	t.kept.push(rec)
	t.mu.Unlock()
	t.keptTotal.Inc()
	if t.log != nil {
		t.log.LogAttrs(context.Background(), slog.LevelInfo, "trace",
			slog.String("trace_id", rec.ID.String()),
			slog.String("request_id", rec.RequestID),
			slog.String("root", rec.RootName),
			slog.String("reason", rec.Reason),
			slog.Float64("duration_ms", ms(rec.Duration)),
			slog.Int("spans", len(rec.Spans)),
		)
	}
}

// Kept snapshots the kept-trace store, newest first. Nil-safe.
func (t *Tracer) Kept() []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kept.snapshot()
}

// Lookup returns the kept trace with the given 32-hex-character id.
// Nil-safe (never found).
func (t *Tracer) Lookup(idHex string) (TraceRecord, bool) {
	if t == nil {
		return TraceRecord{}, false
	}
	var id TraceID
	if len(idHex) != 32 {
		return TraceRecord{}, false
	}
	if _, err := hex.Decode(id[:], []byte(idHex)); err != nil {
		return TraceRecord{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Newest first, so a reused trace id resolves to its latest trace.
	for i := 0; i < t.kept.n; i++ {
		if rec := t.kept.at(i); rec.ID == id {
			return rec, true
		}
	}
	return TraceRecord{}, false
}

// Trace is one in-flight trace: an append-only buffer of completed spans,
// finished (and tail-sampled) when its root span ends. Spans from any
// goroutine of the request may End concurrently; each completion is one
// short append under the trace's mutex.
type Trace struct {
	tracer    *Tracer
	id        TraceID
	requestID string
	parent    SpanID // remote parent from the traceparent header, zero if local
	root      SpanID
	sampled   bool

	errs atomic.Int32

	mu    sync.Mutex
	spans []SpanRecord
}

// ID returns the trace id. Nil-safe (zero id).
func (tr *Trace) ID() TraceID {
	if tr == nil {
		return TraceID{}
	}
	return tr.id
}

// startAt opens a span under parent starting at the given clock reading.
func (tr *Trace) startAt(name string, parent SpanID, at time.Time) Span {
	sp := Span{tr: tr, parent: parent, name: name, start: at}
	binary.LittleEndian.PutUint64(sp.id[:], tr.tracer.rand64())
	return sp
}

// Attr is one integer annotation on a span (counts and sizes: balls
// evaluated, mutations applied, matches returned).
type Attr struct {
	Key   string
	Value int64
}

// SpanRecord is one completed span as stored in a trace.
type SpanRecord struct {
	ID       SpanID
	Parent   SpanID // zero only for a root span with no remote parent
	Name     string
	Start    time.Time
	Duration time.Duration
	// Status is empty for success; anything else marks the span (and its
	// trace) errored — the outcome strings of the flight recorder, or
	// "http <status>" on the root span.
	Status string
	Attrs  []Attr
}

// Span is a handle to one in-flight span. It is a small value, copied
// freely and safe to End from any goroutine. The zero Span (tracing off)
// is inert: Recording reports false and End does nothing, so hot paths
// guard per-item work behind one Recording branch and pay nothing else.
type Span struct {
	tr     *Trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
}

// Recording reports whether the span actually records. Hot paths use this
// to skip attribute assembly when tracing is off.
func (s Span) Recording() bool { return s.tr != nil }

// ID returns the span id (zero for an inert span).
func (s Span) ID() SpanID { return s.id }

// Context returns the trace context identifying this span — what a
// response header or an outgoing downstream request should carry. The
// sampled flag reflects the trace's head decision; tail keeps (slow,
// error) happen after the header is gone.
func (s Span) Context() TraceContext {
	if s.tr == nil {
		return TraceContext{}
	}
	var flags byte
	if s.tr.sampled {
		flags = FlagSampled
	}
	return TraceContext{TraceID: s.tr.id, SpanID: s.id, Flags: flags}
}

// StartChild opens a child span. A zero receiver returns a zero Span.
func (s Span) StartChild(name string) Span { return s.childAt(name, time.Now()) }

// childAt opens a child span starting at the given clock reading.
func (s Span) childAt(name string, at time.Time) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.startAt(name, s.id, at)
}

// End completes the span successfully, recording its duration and any
// attributes. Ending the trace's root span finishes the trace and runs the
// tail-sampling decision. No-op on a zero Span.
func (s Span) End(attrs ...Attr) { s.end("", attrs) }

// EndStatus is End with a status: empty for success, anything else marks
// the span failed and forces the trace's tail keep ("cancelled",
// "deadline", "error", "http 504").
func (s Span) EndStatus(status string, attrs ...Attr) { s.end(status, attrs) }

func (s Span) end(status string, attrs []Attr) {
	if s.tr != nil {
		s.finish(status, attrs, time.Since(s.start))
	}
}

// finish records the span with the given duration; its caller has checked
// that the span records.
func (s Span) finish(status string, attrs []Attr, dur time.Duration) {
	if status != "" {
		s.tr.errs.Add(1)
	}
	rec := SpanRecord{ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, Duration: dur, Status: status, Attrs: attrs}
	tr := s.tr
	tr.mu.Lock()
	if tr.spans != nil {
		tr.spans = append(tr.spans, rec)
	}
	tr.mu.Unlock()
	if s.id == tr.root {
		tr.tracer.finish(tr, dur)
	}
}

// TraceRecord is one kept trace: identity, the tail-keep reason, and the
// flat span list (parent links rebuild the tree).
type TraceRecord struct {
	ID        TraceID
	RequestID string
	// Parent is the remote parent span id from the incoming traceparent,
	// zero when the trace was minted locally.
	Parent SpanID
	// Root is the root span's id — the anchor for tree assembly.
	Root     SpanID
	RootName string
	Reason   string // "slow", "error" or "sampled"
	Start    time.Time
	Duration time.Duration
	Spans    []SpanRecord
}
