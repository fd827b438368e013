package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/obs"
)

// scrape fetches /v1/metrics and parses the exposition into series values.
// Parsing doubles as the format check: a body obs.ParseText rejects would
// also choke a real Prometheus scraper.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	vals, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return vals
}

// TestMetricsEndpoint drives real traffic through the server and asserts
// the scrape reflects it. The registry is process-global and shared with
// every other test in the package, so assertions are deltas between two
// scrapes, never absolute values.
func TestMetricsEndpoint(t *testing.T) {
	g := generator.Synthetic(300, 1.2, 8, 41)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 42})
	ts, _ := newTestServer(t, g, Config{})

	before := scrape(t, ts.URL)
	const n = 3
	for i := 0; i < n; i++ {
		resp, body := post(t, ts.URL+"/v1/match", MatchRequest{
			PatternText: graph.FormatString(q),
			// no_plan keeps every iteration on the evaluation path: this
			// test counts exec-pool runs, which a cache hit would skip.
			Query: QuerySpec{Mode: ModePlus, NoPlan: true},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("match %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	after := scrape(t, ts.URL)

	reqKey := `http_requests_total{code="2xx",endpoint="/v1/match",method="POST"}`
	if d := after[reqKey] - before[reqKey]; d != n {
		t.Errorf("%s grew by %v, want %d", reqKey, d, n)
	}
	cntKey := `http_request_seconds_count{endpoint="/v1/match",method="POST"}`
	if d := after[cntKey] - before[cntKey]; d != n {
		t.Errorf("%s grew by %v, want %d", cntKey, d, n)
	}
	sumKey := `http_request_seconds_sum{endpoint="/v1/match",method="POST"}`
	if d := after[sumKey] - before[sumKey]; d <= 0 {
		t.Errorf("%s grew by %v, want > 0", sumKey, d)
	}
	// The matches ran balls through the exec pool and its scratch arenas.
	if d := after["exec_runs_total"] - before["exec_runs_total"]; d < n {
		t.Errorf("exec_runs_total grew by %v, want >= %d", d, n)
	}
	if after["scratch_ball_builds_total"] < after["scratch_ball_misses_total"] {
		t.Errorf("ball builds %v < misses %v", after["scratch_ball_builds_total"],
			after["scratch_ball_misses_total"])
	}
	// Process gauges render live values.
	if after["go_goroutines"] <= 0 {
		t.Errorf("go_goroutines = %v, want > 0", after["go_goroutines"])
	}
	if after["process_uptime_seconds"] <= 0 {
		t.Errorf("process_uptime_seconds = %v, want > 0", after["process_uptime_seconds"])
	}
}

// TestMetricsExpositionShape asserts the raw text obeys the exposition
// grammar a scraper depends on: HELP then TYPE per family, cumulative
// histogram buckets ending in +Inf with bucket == count.
func TestMetricsExpositionShape(t *testing.T) {
	g := generator.Synthetic(120, 1.2, 6, 43)
	ts, _ := newTestServer(t, g, Config{})
	if _, body := post(t, ts.URL+"/v1/match", MatchRequest{PatternText: "node a L0"}); body == nil {
		t.Fatal("no response")
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	// Label values may contain '}' (route patterns like /v1/queries/{id}),
	// so the label block ends at the last '}' before the value.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? \S+$`)
	seenHelp := map[string]bool{}
	for i, ln := range lines {
		switch {
		case strings.HasPrefix(ln, "# HELP "):
			name := strings.Fields(ln)[2]
			seenHelp[name] = true
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Errorf("line %d: HELP %s not followed by its TYPE", i, name)
			}
		case strings.HasPrefix(ln, "# TYPE "):
			// checked above
		case ln == "":
			t.Errorf("line %d: blank line in exposition", i)
		default:
			if !sample.MatchString(ln) {
				t.Errorf("line %d: malformed sample %q", i, ln)
			}
		}
	}
	if !seenHelp["http_requests_total"] || !seenHelp["http_request_seconds"] {
		t.Fatalf("request metrics missing from exposition")
	}
	// Histogram buckets are cumulative and close with +Inf == _count.
	var prev float64 = -1
	var inf, count float64
	haveInf := false
	for _, ln := range lines {
		if strings.HasPrefix(ln, `http_request_seconds_bucket{endpoint="/v1/match",method="POST",le="`) {
			var v float64
			fmt.Sscanf(ln[strings.LastIndex(ln, " ")+1:], "%g", &v)
			if v < prev {
				t.Errorf("bucket not cumulative: %q after %v", ln, prev)
			}
			prev = v
			if strings.Contains(ln, `le="+Inf"`) {
				inf, haveInf = v, true
			}
		}
		if strings.HasPrefix(ln, `http_request_seconds_count{endpoint="/v1/match",method="POST"}`) {
			fmt.Sscanf(ln[strings.LastIndex(ln, " ")+1:], "%g", &count)
		}
	}
	if !haveInf || inf != count {
		t.Errorf("+Inf bucket %v != count %v (haveInf=%v)", inf, count, haveInf)
	}
}

func TestRequestID(t *testing.T) {
	g := generator.Synthetic(60, 1.2, 4, 44)
	ts, _ := newTestServer(t, g, Config{})

	// Client-supplied ids are echoed verbatim.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set(RequestIDHeader, "trace-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "trace-123" {
		t.Errorf("echoed id %q, want trace-123", got)
	}

	// A missing id gets a generated one.
	resp2, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(RequestIDHeader); got == "" {
		t.Error("no generated request id on the response")
	}

	// Unusable supplied ids (control characters would corrupt logs; the
	// standard client refuses to even send them, so check the sanitizer
	// directly) are replaced with generated ones.
	for _, supplied := range []string{"bad\nid", "tab\tid", strings.Repeat("x", 65), "ünïcode"} {
		r := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
		r.Header.Set(RequestIDHeader, supplied)
		if got := requestID(r); got == supplied {
			t.Errorf("unusable id %q accepted verbatim", supplied)
		}
	}
	r := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	r.Header.Set(RequestIDHeader, "ok-id_42")
	if got := requestID(r); got != "ok-id_42" {
		t.Errorf("usable id replaced: %q", got)
	}
}

// TestPanicRecovery wires a panicking handler through the real middleware
// and asserts the structured 500, the counter, and the error log line.
func TestPanicRecovery(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	s := &server{cfg: Config{}.withDefaults(), log: logger}
	h := s.instrument("GET", "/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	before := scrapeCounter(t, "http_panics_total")
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("500 body is not a structured error: %v (%s)", err, rec.Body.Bytes())
	}
	if e.Code != CodeInternal {
		t.Errorf("error code %q, want %q", e.Code, CodeInternal)
	}
	if strings.Contains(e.Message, "kaboom") {
		t.Errorf("panic value leaked into the response: %q", e.Message)
	}
	if after := scrapeCounter(t, "http_panics_total"); after != before+1 {
		t.Errorf("http_panics_total %v -> %v, want +1", before, after)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "kaboom") || !strings.Contains(logs, "stack") {
		t.Errorf("panic log line missing value or stack: %s", logs)
	}

	// With debug on, a query whose backend panics still finishes: it leaves
	// the in-flight table and the inflight_queries gauge, files a record with
	// outcome error, and its errored trace is kept beside it.
	g := generator.Synthetic(200, 1.2, 6, 45)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 46})
	st := live.NewStore(g, live.Config{Workers: 1})
	ts := httptest.NewServer(NewFleetServer(st, panicBackend{local{store: st}}, Config{EnableDebug: true}))
	defer ts.Close()
	inflight := scrapeCounter(t, "inflight_queries")
	resp, body := post(t, ts.URL+"/v1/match", MatchRequest{PatternText: graph.FormatString(q)})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("debug on: status %d, want 500: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get(RequestIDHeader)
	var active []ActiveQueryJSON
	debugJSON(t, "GET", ts.URL+"/v1/debug/queries", nil, &active)
	if len(active) != 0 {
		t.Errorf("panicked query still in flight: %+v", active)
	}
	if got := scrapeCounter(t, "inflight_queries"); got != inflight {
		t.Errorf("inflight_queries %v after the panic, want %v", got, inflight)
	}
	var recent []QueryRecordJSON
	debugJSON(t, "GET", ts.URL+"/v1/debug/queries/recent", nil, &recent)
	if len(recent) != 1 || recent[0].RequestID != id || recent[0].Outcome != obs.OutcomeError {
		t.Errorf("recent = %+v, want one error record for %s", recent, id)
	}
	kept := keptTraces(t, ts.URL)
	if len(kept) != 1 || kept[0].RequestID != id || kept[0].Reason != "error" {
		t.Errorf("kept traces = %+v, want the errored trace of %s", kept, id)
	}
	if len(recent) == 1 && len(kept) == 1 && recent[0].TraceID != kept[0].TraceID {
		t.Errorf("record trace id %q, kept trace %q", recent[0].TraceID, kept[0].TraceID)
	}
}

// panicBackend is the single-node backend whose Match panics.
type panicBackend struct{ Backend }

func (panicBackend) Match(context.Context, *Query) (MatchResponse, error) { panic("kaboom") }

// scrapeCounter reads one unlabeled series from the global registry.
func scrapeCounter(t *testing.T, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return vals[name]
}

func TestAccessLog(t *testing.T) {
	var logBuf bytes.Buffer
	var mu syncWriter
	mu.w = &logBuf
	logger := slog.New(slog.NewJSONHandler(&mu, nil))
	g := generator.Synthetic(200, 1.2, 6, 45)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 46})
	st := live.NewStore(g, live.Config{Workers: 2})
	ts := httptest.NewServer(NewLiveServer(st, Config{AccessLog: logger}))
	defer ts.Close()

	resp, body := post(t, ts.URL+"/v1/match", MatchRequest{PatternText: graph.FormatString(q)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var line map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("access log is not one JSON line: %v (%s)", err, logBuf.Bytes())
	}
	for _, k := range []string{"method", "path", "status", "bytes", "dur_ms", "request_id", "matches"} {
		if _, ok := line[k]; !ok {
			t.Errorf("access log line missing %q: %v", k, line)
		}
	}
	if line["path"] != "/v1/match" || line["status"] != float64(200) {
		t.Errorf("access log line wrong: %v", line)
	}
	if b, _ := line["bytes"].(float64); int64(b) <= 0 {
		t.Errorf("bytes = %v, want > 0", line["bytes"])
	}

	// Streaming requests log their outcome.
	logBuf.Reset()
	resp2, _ := post(t, ts.URL+"/v1/match/stream", MatchRequest{PatternText: graph.FormatString(q)})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp2.StatusCode)
	}
	var sline map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &sline); err != nil {
		t.Fatalf("stream access log: %v (%s)", err, logBuf.Bytes())
	}
	if sline["outcome"] != "ok" {
		t.Errorf("stream outcome %v, want ok", sline["outcome"])
	}
}

// syncWriter serializes writes: the handler goroutine logs while the test
// goroutine may reset the buffer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestQueryStatsParity pins the tracing contract: "stats": true adds a
// query_stats object and changes nothing else — matches and stats are
// byte-identical to the untraced response.
func TestQueryStatsParity(t *testing.T) {
	g := generator.Synthetic(400, 1.2, 10, 47)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 48})
	ts, _ := newTestServer(t, g, Config{})

	for _, mode := range []string{ModePlain, ModePlus} {
		// no_plan pins both requests to the evaluation path; a repeat
		// would otherwise answer from the planner's cache with a trace
		// that legitimately built zero balls. Planner tracing has its own
		// coverage in plan_test.go.
		off := matchJSON(t, ts.URL, MatchRequest{
			PatternText: graph.FormatString(q), Query: QuerySpec{Mode: mode, NoPlan: true},
		})
		on := matchJSON(t, ts.URL, MatchRequest{
			PatternText: graph.FormatString(q), Query: QuerySpec{Mode: mode, Stats: true, NoPlan: true},
		})
		if off.QueryStats != nil {
			t.Errorf("mode %s: stats off but query_stats present", mode)
		}
		if on.QueryStats == nil {
			t.Fatalf("mode %s: stats on but query_stats missing", mode)
		}
		offMatches, _ := json.Marshal(off.Matches)
		onMatches, _ := json.Marshal(on.Matches)
		if !bytes.Equal(offMatches, onMatches) {
			t.Errorf("mode %s: tracing changed the matches", mode)
		}
		if off.Stats != on.Stats {
			t.Errorf("mode %s: tracing changed stats: %+v vs %+v", mode, off.Stats, on.Stats)
		}
		qs := on.QueryStats
		if qs.CandidateCenters <= 0 || qs.BallsBuilt <= 0 {
			t.Errorf("mode %s: empty trace %+v", mode, qs)
		}
		if qs.BallsBuilt > qs.CandidateCenters {
			t.Errorf("mode %s: built %d balls from %d candidates", mode, qs.BallsBuilt, qs.CandidateCenters)
		}
		if qs.BallNodes < int64(qs.BallsBuilt) {
			t.Errorf("mode %s: %d balls but only %d ball nodes", mode, qs.BallsBuilt, qs.BallNodes)
		}
		if qs.EvalMS < 0 || qs.PrepareMS < 0 || qs.FilterMS < 0 || qs.MergeMS < 0 {
			t.Errorf("mode %s: negative stage time %+v", mode, qs)
		}
	}

	// The streaming endpoint carries the trace in its done trailer.
	resp, body := post(t, ts.URL+"/v1/match/stream", MatchRequest{
		PatternText: graph.FormatString(q), Query: QuerySpec{Stats: true, NoPlan: true},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	var done *StreamDoneJSON
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var ev StreamEventJSON
		if err := dec.Decode(&ev); err != nil {
			break
		}
		if ev.Done != nil {
			done = ev.Done
		}
	}
	if done == nil || done.QueryStats == nil {
		t.Fatalf("stream done trailer missing query_stats: %s", body)
	}
	if done.QueryStats.BallsBuilt <= 0 {
		t.Errorf("stream trace empty: %+v", done.QueryStats)
	}
}

func matchJSON(t *testing.T, base string, req MatchRequest) MatchResponse {
	t.Helper()
	resp, body := post(t, base+"/v1/match", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var mr MatchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	return mr
}

func TestHealthzEnrichment(t *testing.T) {
	g := generator.Synthetic(80, 1.2, 4, 49)
	ts, e := newTestServer(t, g, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
	if h.UptimeSeconds <= 0 {
		t.Errorf("uptime %v, want > 0", h.UptimeSeconds)
	}
	if !strings.HasPrefix(h.GoVersion, "go") {
		t.Errorf("go version %q", h.GoVersion)
	}
	if h.Workers != e.Workers() {
		t.Errorf("workers %d, want %d", h.Workers, e.Workers())
	}
}

// TestPprofGate: off by default, mounted when enabled.
func TestPprofGate(t *testing.T) {
	g := generator.Synthetic(40, 1.2, 4, 50)
	st := live.NewStore(g, live.Config{Workers: 1})

	off := httptest.NewServer(NewLiveServer(st, Config{}))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(NewLiveServer(st, Config{EnablePprof: true}))
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", resp.StatusCode)
	}
}
