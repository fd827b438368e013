package obs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log/slog"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// contextFor deterministically fills a valid TraceContext from a seed.
func contextFor(rng *rand.Rand) TraceContext {
	var tc TraceContext
	binary.LittleEndian.PutUint64(tc.TraceID[:8], rng.Uint64()|1)
	binary.LittleEndian.PutUint64(tc.TraceID[8:], rng.Uint64())
	binary.LittleEndian.PutUint64(tc.SpanID[:], rng.Uint64()|1)
	tc.Flags = byte(rng.Intn(256))
	return tc
}

// TestTraceparentRoundTrip is the propagation property: render → parse →
// render is the identity for every valid context, and parse recovers the
// exact ids and flags.
func TestTraceparentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		want := contextFor(rng)
		s := want.String()
		if len(s) != 55 {
			t.Fatalf("String() = %q: want 55 bytes, got %d", s, len(s))
		}
		got, ok := ParseTraceparent(s)
		if !ok {
			t.Fatalf("ParseTraceparent(%q) rejected a rendered context", s)
		}
		if got != want {
			t.Fatalf("round trip changed the context: %+v -> %q -> %+v", want, s, got)
		}
		if got.String() != s {
			t.Fatalf("second render differs: %q vs %q", got.String(), s)
		}
	}
}

// TestTraceparentMalformed feeds the parser a corpus of invalid headers;
// every one must be rejected (the caller then mints a fresh trace — a bad
// header must never 4xx the request it travelled with).
func TestTraceparentMalformed(t *testing.T) {
	// ids with hex letters, so the uppercase case actually changes bytes
	valid := TraceContext{TraceID: TraceID{0xab, 1}, SpanID: SpanID{0xcd, 2}, Flags: 1}.String()
	cases := []string{
		"",
		"00",
		valid[:54],             // truncated
		strings.ToUpper(valid), // uppercase hex is invalid per spec
		"ff" + valid[2:],       // forbidden version
		"0g" + valid[2:],       // non-hex version
		"00_" + valid[3:],      // wrong separator
		valid[:3] + strings.Repeat("0", 32) + valid[35:],  // all-zero trace id
		valid[:36] + strings.Repeat("0", 16) + valid[52:], // all-zero span id
		valid[:53] + "zz",          // non-hex flags
		valid + "-extra",           // version 00 has no trailing fields
		"01" + valid[2:] + "extra", // later version, junk without "-"
		strings.Replace(valid, "-", " ", 1),
	}
	for _, s := range cases {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted a malformed header", s)
		}
	}
	// Later versions may append "-" separated fields; those must parse.
	if _, ok := ParseTraceparent("01" + valid[2:] + "-congo=t61rcWkgMzE"); !ok {
		t.Errorf("future-version traceparent with trailing fields rejected")
	}
}

// TestTracerTailSampling exercises every keep reason and the drop path.
func TestTracerTailSampling(t *testing.T) {
	t.Run("slow", func(t *testing.T) {
		tr, _ := newTestRecorder(RecorderConfig{SlowThreshold: time.Nanosecond})
		trace, root := tr.StartTrace("GET /x", "r1", TraceContext{})
		time.Sleep(time.Millisecond)
		root.End()
		kept := traces(tr)
		if len(kept) != 1 || kept[0].Trace.Reason != "slow" {
			t.Fatalf("kept = %+v, want one slow trace", kept)
		}
		if kept[0].TraceID != trace.ID() {
			t.Fatalf("kept trace id %s, want %s", kept[0].TraceID, trace.ID())
		}
	})
	t.Run("error", func(t *testing.T) {
		tr, _ := newTestRecorder(RecorderConfig{SlowThreshold: time.Hour})
		_, root := tr.StartTrace("GET /x", "r1", TraceContext{})
		sp := root.StartChild("eval")
		sp.EndStatus("deadline")
		root.End()
		kept := traces(tr)
		if len(kept) != 1 || kept[0].Trace.Reason != "error" {
			t.Fatalf("kept = %+v, want one errored trace", kept)
		}
	})
	t.Run("head-sampled", func(t *testing.T) {
		tr, _ := newTestRecorder(RecorderConfig{SlowThreshold: time.Hour, SampleRate: 1})
		_, root := tr.StartTrace("GET /x", "r1", TraceContext{})
		root.End()
		kept := traces(tr)
		if len(kept) != 1 || kept[0].Trace.Reason != "sampled" {
			t.Fatalf("kept = %+v, want one sampled trace", kept)
		}
	})
	t.Run("propagated-sampled", func(t *testing.T) {
		tr, _ := newTestRecorder(RecorderConfig{SlowThreshold: time.Hour})
		parent := TraceContext{TraceID: TraceID{7}, SpanID: SpanID{9}, Flags: FlagSampled}
		trace, root := tr.StartTrace("GET /x", "r1", parent)
		if trace.ID() != parent.TraceID {
			t.Fatalf("trace id %s, want adopted %s", trace.ID(), parent.TraceID)
		}
		root.End()
		kept := traces(tr)
		if len(kept) != 1 || kept[0].Trace.Reason != "sampled" {
			t.Fatalf("kept = %+v, want one sampled trace", kept)
		}
		if kept[0].Trace.Parent != parent.SpanID {
			t.Fatalf("remote parent %s, want %s", kept[0].Trace.Parent, parent.SpanID)
		}
	})
	t.Run("dropped", func(t *testing.T) {
		tr, reg := newTestRecorder(RecorderConfig{SlowThreshold: time.Hour})
		_, root := tr.StartTrace("GET /x", "r1", TraceContext{})
		sp := root.StartChild("eval")
		sp.End()
		root.End()
		if kept := traces(tr); len(kept) != 0 {
			t.Fatalf("kept = %+v, want none", kept)
		}
		// Dropped traces still feed the metrics: span counts and durations
		// are observed whether or not the tree is retained.
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		for _, want := range []string{
			"trace_spans_total 2",
			"traces_dropped_total 1",
			"traces_kept_total 0",
			`span_duration_seconds_count{span="eval"} 1`,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("exposition missing %q:\n%s", want, text)
			}
		}
	})
}

// TestTraceLateSpansDropped pins the lifecycle rule: a span that ends after
// the root has finished the trace is silently discarded, not appended to a
// record already snapshotted (or racing the ring).
func TestTraceLateSpansDropped(t *testing.T) {
	tr, _ := newTestRecorder(RecorderConfig{SampleRate: 1, SlowThreshold: time.Hour})
	_, root := tr.StartTrace("GET /x", "r1", TraceContext{})
	late := root.StartChild("late")
	root.End()
	late.End() // after finish: dropped
	kept := traces(tr)
	if len(kept) != 1 {
		t.Fatalf("kept %d traces, want 1", len(kept))
	}
	if len(kept[0].Trace.Spans) != 1 || kept[0].Trace.Spans[0].Name != "GET /x" {
		t.Fatalf("spans = %+v, want only the root", kept[0].Trace.Spans)
	}
}

// TestTraceRingOverwrite: with only kept traces finishing, the ring holds
// recordsHeld of them newest-first, evicted traces stop resolving, and
// malformed ids never resolve.
func TestTraceRingOverwrite(t *testing.T) {
	tr, _ := newTestRecorder(RecorderConfig{SampleRate: 1, SlowThreshold: time.Hour})
	var ids []string
	n := recordsHeld + 2
	for i := 0; i < n; i++ {
		_, root := tr.StartTrace(fmt.Sprintf("GET /%d", i), fmt.Sprintf("r%d", i), TraceContext{})
		ids = append(ids, root.Context().TraceID.String())
		root.End()
	}
	kept := traces(tr)
	if len(kept) != recordsHeld {
		t.Fatalf("kept %d traces, want capacity %d", len(kept), recordsHeld)
	}
	for i := 0; i < 3; i++ { // newest first
		if want := fmt.Sprintf("GET /%d", n-1-i); kept[i].Trace.RootName != want {
			t.Fatalf("kept[%d] = %q, want %q", i, kept[i].Trace.RootName, want)
		}
	}
	for _, evicted := range ids[:2] {
		if _, ok := tr.Lookup(evicted); ok {
			t.Fatalf("evicted trace %s still resolves", evicted)
		}
	}
	newest := ids[n-1]
	rec, ok := tr.Lookup(newest)
	if !ok || rec.Trace.RootName != fmt.Sprintf("GET /%d", n-1) {
		t.Fatalf("Lookup(%s) = %+v, %v", newest, rec, ok)
	}
	for _, bad := range []string{"", "zz", newest[:31], newest + "0"} {
		if _, ok := tr.Lookup(bad); ok {
			t.Fatalf("Lookup(%q) resolved", bad)
		}
	}
}

// TestTraceKeptLog checks the one-line-per-kept-trace logging.
func TestTraceKeptLog(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	tr, _ := newTestRecorder(RecorderConfig{SampleRate: 1, SlowThreshold: time.Hour, Log: log})
	_, root := tr.StartTrace("POST /v1/match", "req-7", TraceContext{})
	root.End()
	out := buf.String()
	for _, want := range []string{"msg=trace", "request_id=req-7", "reason=sampled", "spans=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("kept-trace log missing %q: %s", want, out)
		}
	}
}

// TestTraceConcurrentSpans hammers one recorder from many goroutines — spans
// ending concurrently within a trace, traces finishing concurrently with
// view and Lookup readers — and relies on -race for the verdict.
func TestTraceConcurrentSpans(t *testing.T) {
	tr, _ := newTestRecorder(RecorderConfig{SampleRate: 1, SlowThreshold: time.Hour})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader over the ring
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, rec := range traces(tr) {
				tr.Lookup(rec.TraceID.String())
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, root := tr.StartTrace("GET /x", fmt.Sprintf("g%d-%d", g, i), TraceContext{})
				var inner sync.WaitGroup
				for w := 0; w < 4; w++ {
					sp := root.StartChild("eval.worker")
					inner.Add(1)
					go func(sp Span) {
						defer inner.Done()
						sp.End(Attr{Key: "balls", Value: 1})
					}(sp)
				}
				inner.Wait()
				root.End()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if kept := traces(tr); len(kept) != recordsHeld {
		t.Fatalf("kept %d traces, want the full capacity %d", len(kept), recordsHeld)
	} else {
		for _, rec := range kept {
			if len(rec.Trace.Spans) != 5 { // root + 4 workers
				t.Fatalf("trace %s holds %d spans, want 5", rec.TraceID, len(rec.Trace.Spans))
			}
		}
	}
}

// TestTraceNilSafety drives every entry point through nil receivers and
// zero values: all must be inert no-ops.
func TestTraceNilSafety(t *testing.T) {
	var tr *Recorder
	trace, root := tr.StartTrace("GET /x", "r1", TraceContext{})
	if trace != nil || root.Recording() {
		t.Fatalf("nil recorder StartTrace = (%v, recording=%v), want inert", trace, root.Recording())
	}
	if got := trace.ID(); !got.IsZero() {
		t.Fatalf("nil trace ID = %s, want zero", got)
	}
	sp := root.StartChild("x")
	sp.End()
	sp.EndStatus("error")
	if sp.StartChild("y").Recording() {
		t.Fatal("child of inert span records")
	}
	if ctx := sp.Context(); ctx != (TraceContext{}) {
		t.Fatalf("inert span context = %+v, want zero", ctx)
	}
	if traces(tr) != nil {
		t.Fatal("nil recorder traces != nil")
	}
	if _, ok := tr.Lookup(strings.Repeat("0", 32)); ok {
		t.Fatal("nil recorder Lookup resolved")
	}
	var qs *QueryStats
	if qs.Begin(StageEval); qs.Span().Recording() {
		t.Fatal("nil QueryStats stage span records")
	}
	qs2 := new(QueryStats) // zero Root: the stats-only path
	if qs2.Begin(StageEval); qs2.Span().Recording() {
		t.Fatal("QueryStats without a root span records")
	}
}

// TestQueryStatsSpanParenting checks the serving-path wiring: stage spans
// begun through QueryStats land under its root span, timed like the stage.
func TestQueryStatsSpanParenting(t *testing.T) {
	tr, _ := newTestRecorder(RecorderConfig{SampleRate: 1, SlowThreshold: time.Hour})
	trace, root := tr.StartTrace("POST /v1/match", "r1", TraceContext{})
	qs := &QueryStats{Root: root}
	qs.Begin(StageEval)
	if !qs.Span().Recording() {
		t.Fatal("stage span not recording")
	}
	qs.End("", Attr{Key: "balls", Value: 3})
	root.End()
	rec, ok := tr.Lookup(trace.ID().String())
	if !ok {
		t.Fatal("trace not kept")
	}
	var found bool
	for _, s := range rec.Trace.Spans {
		if s.Name == "eval" {
			found = true
			if s.Parent != rec.Trace.Root {
				t.Fatalf("eval span parent %s, want root %s", s.Parent, rec.Trace.Root)
			}
			if len(s.Attrs) != 1 || s.Attrs[0] != (Attr{Key: "balls", Value: 3}) {
				t.Fatalf("attrs = %+v", s.Attrs)
			}
			if s.Duration != qs.Eval {
				t.Fatalf("eval span ran %v, the record's eval stage %v", s.Duration, qs.Eval)
			}
		}
	}
	if !found {
		t.Fatal("eval span missing from kept trace")
	}
}

// TestZeroSpanChildIsZero: a span that does not record opens children that
// do not record either — zero Spans, at any depth, which End ignores — and
// opening one allocates nothing. Untraced queries open one per evaluating
// goroutine (exec's "eval.worker") and per live stage.
func TestZeroSpanChildIsZero(t *testing.T) {
	var zero Span
	child := zero.StartChild("eval.worker")
	if child != (Span{}) || child.Recording() {
		t.Fatalf("a zero span's child is %+v, want a zero Span", child)
	}
	if grand := child.StartChild("live.maintain"); grand != (Span{}) {
		t.Fatalf("a zero span's grandchild is %+v, want a zero Span", grand)
	}
	child.End(Attr{Key: "balls", Value: 1})
	if allocs := testing.AllocsPerRun(100, func() { zero.StartChild("eval.worker").End() }); allocs != 0 {
		t.Fatalf("a zero span's child allocates %.1f times", allocs)
	}
}
