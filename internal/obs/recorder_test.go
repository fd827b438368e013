package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// newTestRecorder builds a recorder over a private registry so its gauge,
// counters and histograms never collide with the process-wide Default shared
// by other tests.
func newTestRecorder(cfg RecorderConfig) (*Recorder, *Registry) {
	reg := NewRegistry()
	cfg.Registry = reg
	return NewRecorder(cfg), reg
}

// recent and slow are the /v1/debug/queries views; traces is /v1/debug/traces.
func recent(rc *Recorder) []Record { return rc.Records((*Record).HasQuery) }

func slow(rc *Recorder) []Record {
	return rc.Records(func(r *Record) bool { return r.HasQuery() && r.Query.Slow })
}

func traces(rc *Recorder) []Record { return rc.Records((*Record).Kept) }

// TestFlightLifecycle walks one query through the recorder: registration
// shows in the active table, live progress (stage + balls) is visible while
// the query runs, and Finish files it in the recent view with a snapshot
// of its stats.
func TestFlightLifecycle(t *testing.T) {
	fr, reg := newTestRecorder(RecorderConfig{SlowThreshold: -1})
	stats := new(QueryStats)
	fl := fr.StartFlight("req-1", "match", "deadbeef00000000", nil, stats)
	if fl.RequestID() != "req-1" {
		t.Fatalf("request id %q, want req-1", fl.RequestID())
	}
	if got := fr.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	if got := reg.Gauge("inflight_queries", "").Value(); got != 1 {
		t.Fatalf("inflight_queries = %d, want 1", got)
	}

	// The serving path publishes progress through the record; the debug
	// handler reads it through Active while the query still runs.
	stats.Begin(StageEval)
	stats.ObserveBall(5, 9)
	stats.ObserveBall(5, 9)
	active := fr.Active()
	if len(active) != 1 {
		t.Fatalf("Active() = %v, want one entry", active)
	}
	a := active[0]
	if a.RequestID != "req-1" || a.Kind != "match" || a.Digest != "deadbeef00000000" {
		t.Errorf("active entry identity wrong: %+v", a)
	}
	if a.Stage != StageEval || a.Balls != 2 {
		t.Errorf("live progress stage=%v balls=%d, want eval/2", a.Stage, a.Balls)
	}
	if a.Elapsed < 0 {
		t.Errorf("negative elapsed %v", a.Elapsed)
	}

	stats.CandidateCenters = 7
	stats.End("")
	fl.Finish(OutcomeOK, "", 3)
	if got := fr.InFlight(); got != 0 {
		t.Fatalf("InFlight after Finish = %d, want 0", got)
	}
	if got := reg.Gauge("inflight_queries", "").Value(); got != 0 {
		t.Fatalf("inflight_queries after Finish = %d, want 0", got)
	}
	recs := recent(fr)
	if len(recs) != 1 {
		t.Fatalf("recent = %v, want one record", recs)
	}
	rec := recs[0].Query
	if recs[0].RequestID != "req-1" || rec.Outcome != OutcomeOK || rec.Matches != 3 {
		t.Errorf("record %+v", recs[0])
	}
	if rec.Stats.CandidateCenters != 7 || rec.Stats.BallsBuilt != 2 || rec.Stats.BallNodes != 10 {
		t.Errorf("record stats not snapshotted: %+v", rec.Stats)
	}
	if rec.Stats != stats.Stats {
		t.Errorf("record stats %+v, want the query's %+v", rec.Stats, stats.Stats)
	}
	if rec.Latency < 0 {
		t.Errorf("negative latency %v", rec.Latency)
	}
	if recs[0].Kept() || !recs[0].TraceID.IsZero() {
		t.Errorf("untraced query's record carries a trace: %+v", recs[0])
	}
}

// TestFlightIDMinting: empty ids get generated ones, and an id colliding
// with a still-running query is suffixed so both stay addressable.
func TestFlightIDMinting(t *testing.T) {
	fr, _ := newTestRecorder(RecorderConfig{SlowThreshold: -1})
	anon := fr.StartFlight("", "match", "d", nil, nil)
	if anon.RequestID() == "" {
		t.Fatal("empty id not replaced with a generated one")
	}
	first := fr.StartFlight("dup", "match", "d", nil, nil)
	second := fr.StartFlight("dup", "match", "d", nil, nil)
	if first.RequestID() != "dup" {
		t.Fatalf("first registration got %q, want dup", first.RequestID())
	}
	if second.RequestID() == "dup" || !strings.HasPrefix(second.RequestID(), "dup#") {
		t.Fatalf("colliding registration got %q, want dup#<seq>", second.RequestID())
	}
	if got := fr.InFlight(); got != 3 {
		t.Fatalf("InFlight = %d, want 3", got)
	}
	// The suffixed id is what Active serves, so Cancel can address it.
	ids := map[string]bool{}
	for _, a := range fr.Active() {
		ids[a.RequestID] = true
	}
	for _, want := range []string{anon.RequestID(), "dup", second.RequestID()} {
		if !ids[want] {
			t.Errorf("Active() missing %q: %v", want, ids)
		}
	}
	// A Finish of the suffixed flight must not evict the original.
	second.Finish(OutcomeOK, "", 0)
	if got := fr.InFlight(); got != 2 {
		t.Fatalf("InFlight after suffixed Finish = %d, want 2", got)
	}
	anon.Finish(OutcomeOK, "", 0)
	first.Finish(OutcomeOK, "", 0)
}

// TestFlightRingWrap: with only queries finishing, the recent view is the
// whole ring, overwritten oldest-first and read newest-first.
func TestFlightRingWrap(t *testing.T) {
	fr, _ := newTestRecorder(RecorderConfig{SlowThreshold: -1})
	n := recordsHeld + 2
	for i := 1; i <= n; i++ {
		fr.StartFlight(fmt.Sprintf("r-%d", i), "match", "d", nil, nil).Finish(OutcomeOK, "", i)
	}
	recs := recent(fr)
	if len(recs) != recordsHeld {
		t.Fatalf("ring holds %d records, want %d", len(recs), recordsHeld)
	}
	if last := recs[recordsHeld-1].RequestID; last != "r-3" {
		t.Fatalf("oldest record held = %q, want r-3", last)
	}
	for i, want := range []string{fmt.Sprintf("r-%d", n), fmt.Sprintf("r-%d", n-1), fmt.Sprintf("r-%d", n-2)} {
		if recs[i].RequestID != want {
			t.Fatalf("recent[%d] = %q, want %q (newest first)", i, recs[i].RequestID, want)
		}
	}
}

// TestRecorderRingWrap: the one ring holds recordsHeld finished requests,
// queries and kept traces alike, overwrites oldest-first, and every view
// reads it newest-first; an overwritten trace no longer resolves.
func TestRecorderRingWrap(t *testing.T) {
	rc, _ := newTestRecorder(RecorderConfig{SampleRate: 1, SlowThreshold: -1})
	n := recordsHeld + 2
	var traceIDs []string
	for i := 1; i <= n; i++ {
		if i%2 == 1 { // an untraced query
			rc.StartFlight(fmt.Sprintf("q-%d", i), "match", "d", nil, nil).Finish(OutcomeOK, "", i)
			continue
		}
		_, root := rc.StartTrace(fmt.Sprintf("GET /%d", i), fmt.Sprintf("t-%d", i), TraceContext{})
		traceIDs = append(traceIDs, root.Context().TraceID.String())
		root.End()
	}
	if all := rc.Records(func(*Record) bool { return true }); len(all) != recordsHeld {
		t.Fatalf("ring holds %d records, want %d", len(all), recordsHeld)
	} else if all[0].RequestID != fmt.Sprintf("t-%d", n) || all[recordsHeld-1].RequestID != "q-3" {
		t.Fatalf("ring spans %s..%s, want t-%d..q-3", all[0].RequestID, all[recordsHeld-1].RequestID, n)
	}
	recs, kept := recent(rc), traces(rc)
	if len(recs) != recordsHeld/2 || len(kept) != recordsHeld/2 {
		t.Fatalf("views hold %d queries and %d traces, want %d each", len(recs), len(kept), recordsHeld/2)
	}
	for i := 0; i < 3; i++ { // newest first
		if want := fmt.Sprintf("q-%d", n-1-2*i); recs[i].RequestID != want {
			t.Fatalf("recent[%d] = %q, want %q", i, recs[i].RequestID, want)
		}
		if want := fmt.Sprintf("GET /%d", n-2*i); kept[i].Trace.RootName != want {
			t.Fatalf("kept[%d] = %q, want %q", i, kept[i].Trace.RootName, want)
		}
	}
	if _, ok := rc.Lookup(traceIDs[0]); ok {
		t.Fatalf("overwritten trace %s still resolves", traceIDs[0])
	}
	newest := traceIDs[len(traceIDs)-1]
	if rec, ok := rc.Lookup(newest); !ok || rec.Trace.RootName != fmt.Sprintf("GET /%d", n) {
		t.Fatalf("Lookup(%s) = %+v, %v", newest, rec, ok)
	}
	for _, bad := range []string{"", "zz", newest[:31], newest + "0"} {
		if _, ok := rc.Lookup(bad); ok {
			t.Fatalf("Lookup(%q) resolved", bad)
		}
	}
}

// TestRecorderJoin: a traced query files one record holding both parts,
// whichever of its flight and its root span finishes first; a dropped trace
// leaves the query's record its trace id and no trace part; a kept request
// with no flight, or whose flight's record was overwritten, files its own.
func TestRecorderJoin(t *testing.T) {
	rc, _ := newTestRecorder(RecorderConfig{SlowThreshold: -1})
	traced := func(id string, keep bool) (*QueryStats, Span) {
		var parent TraceContext
		if keep {
			parent = TraceContext{TraceID: TraceID{1}, SpanID: SpanID{2}, Flags: FlagSampled}
		}
		_, root := rc.StartTrace("POST /v1/match", id, parent)
		return &QueryStats{Root: root}, root
	}
	all := func() []Record { return rc.Records(func(*Record) bool { return true }) }

	for _, flightFirst := range []bool{true, false} {
		stats, root := traced("joined", true)
		fl := rc.StartFlight("joined", "match", "d", nil, stats)
		if flightFirst {
			fl.Finish(OutcomeOK, "", 1)
			root.End()
		} else {
			root.End()
			fl.Finish(OutcomeOK, "", 1)
		}
		recs := all()
		if len(recs) != 1 || !recs[0].HasQuery() || !recs[0].Kept() {
			t.Fatalf("flight first %v: records %+v, want one with both parts", flightFirst, recs)
		}
		if recs[0].RequestID != "joined" || recs[0].TraceID != root.Context().TraceID {
			t.Fatalf("flight first %v: identity %s/%s", flightFirst, recs[0].RequestID, recs[0].TraceID)
		}
		rc, _ = newTestRecorder(RecorderConfig{SlowThreshold: -1})
	}

	stats, root := traced("dropped", false)
	rc.StartFlight("dropped", "match", "d", nil, stats).Finish(OutcomeOK, "", 0)
	root.End()
	if recs := all(); len(recs) != 1 || recs[0].Kept() || recs[0].TraceID != root.Context().TraceID {
		t.Fatalf("dropped trace: records %+v, want the query's record with its trace id only", recs)
	}

	_, probe := rc.StartTrace("GET /v1/healthz", "probe", TraceContext{TraceID: TraceID{3}, SpanID: SpanID{4}, Flags: FlagSampled})
	probe.End()
	if recs := all(); len(recs) != 2 || recs[0].RequestID != "probe" || recs[0].HasQuery() || !recs[0].Kept() {
		t.Fatalf("flightless kept trace: records %+v, want a trace-only record first", recs)
	}

	stats, root = traced("late", true)
	rc.StartFlight("late", "match", "d", nil, stats).Finish(OutcomeOK, "", 0)
	for i := 0; i < recordsHeld; i++ {
		rc.StartFlight("filler", "match", "d", nil, nil).Finish(OutcomeOK, "", 0)
	}
	root.End()
	if recs := all(); recs[0].RequestID != "late" || recs[0].HasQuery() || !recs[0].Kept() {
		t.Fatalf("trace outliving its query's record: newest %+v, want a trace-only record", recs[0])
	}
}

// TestFlightSlowClassification: a completed query at or above the threshold
// lands in the slow view, bumps slow_queries_total, and emits one structured
// warning with the stage breakdown; a negative threshold disables all of it.
func TestFlightSlowClassification(t *testing.T) {
	var logBuf bytes.Buffer
	fr, reg := newTestRecorder(RecorderConfig{
		SlowThreshold: time.Nanosecond,
		Log:           slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	stats := &QueryStats{Stats: Stats{CandidateCenters: 4, Eval: 2 * time.Millisecond}}
	fl := fr.StartFlight("slow-1", "match", "d", nil, stats)
	time.Sleep(time.Microsecond) // any positive latency crosses a 1ns threshold
	fl.Finish(OutcomeOK, "", 2)

	if got := reg.Counter("slow_queries_total", "").Value(); got != 1 {
		t.Fatalf("slow_queries_total = %d, want 1", got)
	}
	if recs := slow(fr); len(recs) != 1 || recs[0].RequestID != "slow-1" {
		t.Fatalf("slow = %v, want the one slow record", recs)
	}
	var line map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("slow log is not one JSON line: %v (%s)", err, logBuf.Bytes())
	}
	if line["msg"] != "slow query" || line["level"] != "WARN" {
		t.Errorf("log line %v, want a 'slow query' warning", line)
	}
	for _, k := range []string{"request_id", "kind", "digest", "outcome", "latency_ms",
		"matches", "candidate_centers", "balls_built", "ball_nodes", "ball_edges",
		"prepare_ms", "filter_ms", "eval_ms", "merge_ms"} {
		if _, ok := line[k]; !ok {
			t.Errorf("slow log line missing %q: %v", k, line)
		}
	}
	if line["request_id"] != "slow-1" || line["candidate_centers"] != float64(4) {
		t.Errorf("slow log values wrong: %v", line)
	}

	// Negative threshold: nothing is slow, nothing is logged.
	var quiet bytes.Buffer
	off, offReg := newTestRecorder(RecorderConfig{
		SlowThreshold: -1,
		Log:           slog.New(slog.NewJSONHandler(&quiet, nil)),
	})
	off.StartFlight("fast", "match", "d", nil, nil).Finish(OutcomeOK, "", 0)
	if len(slow(off)) != 0 || offReg.Counter("slow_queries_total", "").Value() != 0 || quiet.Len() != 0 {
		t.Error("negative threshold still classified a query as slow")
	}
}

// TestFlightCancel: Cancel fires the registered cancel func exactly for
// in-flight ids and reports not-found for everything else.
func TestFlightCancel(t *testing.T) {
	fr, _ := newTestRecorder(RecorderConfig{SlowThreshold: -1})
	ctx, cancel := context.WithCancel(context.Background())
	fl := fr.StartFlight("victim", "match", "d", cancel, nil)

	if fr.Cancel("no-such-id") {
		t.Error("Cancel of an unknown id reported found")
	}
	if !fr.Cancel("victim") {
		t.Fatal("Cancel of an in-flight id reported not found")
	}
	select {
	case <-ctx.Done():
	default:
		t.Fatal("Cancel did not fire the cancel func")
	}
	// The query observes its context and records through its own exit path.
	fl.Finish(OutcomeCancelled, "request cancelled", 0)
	if fr.Cancel("victim") {
		t.Error("Cancel of a finished id reported found")
	}
	if rec := recent(fr); len(rec) != 1 || rec[0].Query.Outcome != OutcomeCancelled {
		t.Fatalf("recent = %v, want one cancelled record", rec)
	}
}

// TestFlightDoubleFinish: only the first Finish records; a retried exit path
// cannot double-decrement the gauge or duplicate the record.
func TestFlightDoubleFinish(t *testing.T) {
	fr, reg := newTestRecorder(RecorderConfig{SlowThreshold: -1})
	fl := fr.StartFlight("once", "match", "d", nil, nil)
	fl.Finish(OutcomeError, "boom", 0)
	fl.Finish(OutcomeOK, "", 9)
	if got := len(recent(fr)); got != 1 {
		t.Fatalf("double Finish recorded %d records, want 1", got)
	}
	if rec := recent(fr)[0].Query; rec.Outcome != OutcomeError || rec.Matches != 0 {
		t.Fatalf("second Finish overwrote the first: %+v", rec)
	}
	if got := reg.Gauge("inflight_queries", "").Value(); got != 0 {
		t.Fatalf("inflight_queries = %d after double Finish, want 0", got)
	}
}

// TestFlightNilSafety: the recorder-off path passes nil recorders and nil
// flights through the whole serving surface; every call must be a no-op.
func TestFlightNilSafety(t *testing.T) {
	var fr *Recorder
	fl := fr.StartFlight("id", "match", "d", nil, nil)
	if fl != nil {
		t.Fatal("nil recorder returned a non-nil Flight")
	}
	fl.Finish(OutcomeOK, "", 1) // must not panic
	if fl.RequestID() != "" {
		t.Error("nil Flight has a request id")
	}
	if fr.Active() != nil || recent(fr) != nil || slow(fr) != nil {
		t.Error("nil recorder served non-nil tables")
	}
	if fr.Cancel("x") || fr.InFlight() != 0 {
		t.Error("nil recorder found queries")
	}

	var qs *QueryStats
	qs.Begin(StageEval)
	qs.ObserveBall(1, 1)
	qs.End("error", Attr{Key: "balls", Value: 1})
	if qs.Stage() != StagePrepare || qs.Balls() != 0 || qs.Span().Recording() {
		t.Error("nil QueryStats reported progress")
	}
}

// TestStageString pins the wire names /v1/debug serves.
func TestStageString(t *testing.T) {
	for s, want := range map[Stage]string{
		StagePrepare: "prepare",
		StageFilter:  "filter",
		StageEval:    "eval",
		StageMerge:   "merge",
		Stage(99):    "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("Stage(%d).String() = %q, want %q", s, got, want)
		}
	}
}

// TestFlightConcurrentUse hammers one recorder from many goroutines —
// traced registrations, finishes, cancels, kept traces joining their
// queries' records and view scrapes interleaving — so `go test -race`
// certifies the locking.
func TestFlightConcurrentUse(t *testing.T) {
	fr, _ := newTestRecorder(RecorderConfig{SlowThreshold: -1, SampleRate: 0.5})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				_, root := fr.StartTrace("POST /v1/match", id, TraceContext{})
				stats := &QueryStats{Root: root}
				_, cancel := context.WithCancel(context.Background())
				fl := fr.StartFlight(id, "match", "d", cancel, stats)
				stats.Begin(StageEval)
				stats.ObserveBall(1, 1)
				stats.End("")
				if i%3 == 0 {
					fr.Cancel(fl.RequestID())
					fl.Finish(OutcomeCancelled, "cancelled", 0)
				} else {
					fl.Finish(OutcomeOK, "", 1)
				}
				root.End()
				cancel()
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		fr.Active()
		recent(fr)
		slow(fr)
		traces(fr)
		fr.InFlight()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got := fr.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after all finished, want 0", got)
	}
}
