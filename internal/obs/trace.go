package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

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
// makes Recorder.StartTrace mint a fresh trace.
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

// StartTrace opens a new trace with its root span. parent is the incoming
// trace context (the zero value when the request carried none): its trace
// id is adopted, its span id becomes the root span's parent, and its
// sampled flag forces the tail keep. name names the root span (the route
// pattern on the serving path) and requestID identifies the request in the
// trace's record and log line. The head-sampling draw also happens here, so
// one trace's keep decision is stable however many spans it records. A nil
// recorder returns a nil Trace and a zero Span, both inert.
func (rc *Recorder) StartTrace(name, requestID string, parent TraceContext) (*Trace, Span) {
	if rc == nil {
		return nil, Span{}
	}
	tr := &Trace{
		rc:        rc,
		requestID: requestID,
		parent:    parent.SpanID,
		sampled:   parent.Sampled(),
		spans:     make([]SpanRecord, 0, 8),
	}
	if parent.TraceID.IsZero() {
		binary.LittleEndian.PutUint64(tr.id[:8], rc.rand64())
		binary.LittleEndian.PutUint64(tr.id[8:], rc.rand64())
	} else {
		tr.id = parent.TraceID
	}
	if !tr.sampled && rc.sampleRate > 0 {
		// 53-bit uniform draw, the float64 precision of the unit interval.
		draw := float64(rc.rand64()>>11) / float64(1<<53)
		tr.sampled = draw < rc.sampleRate
	}
	root := Span{tr: tr, parent: parent.SpanID, name: name, start: time.Now()}
	binary.LittleEndian.PutUint64(root.id[:], rc.rand64())
	tr.root = root.id
	return tr, root
}

// finish applies the tail decision once a trace's root span has ended: a
// kept trace's part is filed on the record its query's flight filed, or on
// a record of its own.
func (rc *Recorder) finish(tr *Trace, rootDur time.Duration) {
	tr.mu.Lock()
	spans := tr.spans
	tr.spans = nil // further End calls are dropped
	tr.mu.Unlock()

	rc.spansTotal.Add(int64(len(spans)))
	for i := range spans {
		rc.duration(spans[i].Name).Observe(spans[i].Duration.Seconds())
	}

	reason := ""
	switch {
	case tr.errs.Load() > 0:
		reason = "error"
	case rc.slowThreshold > 0 && rootDur >= rc.slowThreshold:
		reason = "slow"
	case tr.sampled:
		reason = "sampled"
	}
	if reason == "" {
		rc.droppedTotal.Inc()
		return
	}
	part := TracePart{
		Parent:   tr.parent,
		Root:     tr.root,
		Reason:   reason,
		Duration: rootDur,
		Spans:    spans,
	}
	for i := range spans {
		if spans[i].ID == tr.root {
			part.Start = spans[i].Start
			part.RootName = spans[i].Name
			break
		}
	}
	rc.mu.Lock()
	rec := rc.file(tr)
	if rec.RequestID == "" {
		rec.RequestID = tr.requestID
	}
	rec.Trace = part
	requestID := rec.RequestID
	rc.mu.Unlock()
	rc.keptTotal.Inc()
	if rc.log != nil {
		rc.log.LogAttrs(context.Background(), slog.LevelInfo, "trace",
			slog.String("trace_id", tr.id.String()),
			slog.String("request_id", requestID),
			slog.String("root", part.RootName),
			slog.String("reason", part.Reason),
			slog.Float64("duration_ms", ms(part.Duration)),
			slog.Int("spans", len(part.Spans)),
		)
	}
}

// Trace is one in-flight trace: an append-only buffer of completed spans,
// finished (and tail-sampled) when its root span ends. Spans from any
// goroutine of the request may End concurrently; each completion is one
// short append under the trace's mutex.
type Trace struct {
	rc        *Recorder
	id        TraceID
	requestID string
	parent    SpanID // remote parent from the traceparent header, zero if local
	root      SpanID
	sampled   bool

	errs atomic.Int32

	mu    sync.Mutex
	spans []SpanRecord

	// filed is the ring slot of the request's record, once its flight or
	// its kept trace filed one, and seq that record's filing number; the
	// slot is still the request's while their seqs agree. Guarded by rc.mu.
	filed *Record
	seq   uint64
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
	binary.LittleEndian.PutUint64(sp.id[:], tr.rc.rand64())
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
	// trace) errored — the outcome strings of a query's record, or
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

// StartChild opens a child span. A zero receiver returns a zero Span without
// reading the clock, so spans that do not record cost nothing.
func (s Span) StartChild(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.startAt(name, s.id, time.Now())
}

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
		tr.rc.finish(tr, dur)
	}
}
