package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/live"
)

// debugJSON performs one request with optional headers and decodes the JSON
// body into dst (skipped for 204s and nil dst).
func debugJSON(t *testing.T, method, url string, headers map[string]string, dst any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if dst != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.Unmarshal(buf.Bytes(), dst); err != nil {
			t.Fatalf("%s %s: body %q does not decode: %v", method, url, buf.Bytes(), err)
		}
	}
	return resp
}

// TestDebugGate: without EnableDebug the whole /v1/debug tree answers the
// ordinary 404; with it the tables serve (empty) JSON arrays and an unknown
// cancel target answers a structured 404.
func TestDebugGate(t *testing.T) {
	g := generator.Synthetic(60, 1.2, 4, 61)
	off, _ := newTestServer(t, g, Config{})
	for _, path := range []string{"/v1/debug/queries", "/v1/debug/queries/recent", "/v1/debug/queries/slow"} {
		var e Error
		resp := debugJSON(t, "GET", off.URL+path, nil, &e)
		if resp.StatusCode != http.StatusNotFound || e.Code != CodeNotFound {
			t.Errorf("debug off: GET %s = %d (%s), want structured 404", path, resp.StatusCode, e.Code)
		}
	}

	on, _ := newTestServer(t, g, Config{EnableDebug: true})
	var active []ActiveQueryJSON
	if resp := debugJSON(t, "GET", on.URL+"/v1/debug/queries", nil, &active); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/queries = %d, want 200", resp.StatusCode)
	}
	if active == nil || len(active) != 0 {
		t.Errorf("idle active table = %v, want empty array (not null)", active)
	}
	for _, path := range []string{"/v1/debug/queries/recent", "/v1/debug/queries/slow"} {
		var recs []QueryRecordJSON
		if resp := debugJSON(t, "GET", on.URL+path, nil, &recs); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	var e Error
	resp := debugJSON(t, "DELETE", on.URL+"/v1/debug/queries/no-such-id", nil, &e)
	if resp.StatusCode != http.StatusNotFound || e.Code != CodeNotFound {
		t.Errorf("cancel of unknown id = %d (%s), want structured 404", resp.StatusCode, e.Code)
	}

	// A DELETE on the literal ring paths falls through to the cancel
	// wildcard: it means "cancel the query whose id is recent/slow", which
	// is almost surely not in flight.
	var notFound Error
	if resp := debugJSON(t, "DELETE", on.URL+"/v1/debug/queries/recent", nil, &notFound); resp.StatusCode != http.StatusNotFound || notFound.Code != CodeNotFound {
		t.Errorf("DELETE /v1/debug/queries/recent = %d (%s), want 404 for a not-in-flight id", resp.StatusCode, notFound.Code)
	}

	// Wrong methods across the subtree answer structured 405s with the
	// path-sensitive Allow sets of the custom fallback.
	for _, tc := range []struct{ method, path, allow string }{
		{"POST", "/v1/debug/queries", "GET"},
		{"PUT", "/v1/debug/queries/recent", "GET"},
		{"POST", "/v1/debug/queries/slow", "GET"},
		{"GET", "/v1/debug/queries/some-id", "DELETE"},
	} {
		var me Error
		resp := debugJSON(t, tc.method, on.URL+tc.path, nil, &me)
		if resp.StatusCode != http.StatusMethodNotAllowed || me.Code != CodeMethodNotAllowed {
			t.Errorf("%s %s = %d (%s), want structured 405", tc.method, tc.path, resp.StatusCode, me.Code)
			continue
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
}

// TestDebugCancelFlow is the acceptance path of the flight recorder: a
// long-running /v1/match appears in the in-flight table under its supplied
// X-Request-Id with a live stage and progress, DELETE kills it, the caller
// sees the structured cancelled error, and the record lands in the recent
// ring with outcome "cancelled".
func TestDebugCancelFlow(t *testing.T) {
	// Few labels over many nodes with a deep radius and one worker: nearly
	// every node is a candidate center and each ball is a large BFS, so the
	// match runs for many seconds unless cancelled.
	g := generator.Synthetic(30000, 1.2, 4, 91)
	st := live.NewStore(g, live.Config{Workers: 1})
	ts := httptest.NewServer(NewLiveServer(st, Config{
		EnableDebug:    true,
		DefaultTimeout: time.Minute,
		MaxTimeout:     time.Minute,
	}))
	t.Cleanup(ts.Close)

	req := MatchRequest{
		PatternText: "node a l0\nnode b l1\nedge a b\nedge b a",
		Query:       QuerySpec{Radius: 8},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	type matchResult struct {
		status int
		body   []byte
	}
	resultc := make(chan matchResult, 1)
	go func() {
		hreq, err := http.NewRequest("POST", ts.URL+"/v1/match", bytes.NewReader(body))
		if err != nil {
			resultc <- matchResult{status: -1}
			return
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set(RequestIDHeader, "cancel-me")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			resultc <- matchResult{status: -1}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resultc <- matchResult{status: resp.StatusCode, body: buf.Bytes()}
	}()

	// Poll the in-flight table until the match registers.
	validStages := map[string]bool{"prepare": true, "filter": true, "eval": true, "merge": true}
	var entry *ActiveQueryJSON
	deadline := time.Now().Add(15 * time.Second)
	for entry == nil {
		if time.Now().After(deadline) {
			t.Fatal("match never appeared in GET /v1/debug/queries")
		}
		var active []ActiveQueryJSON
		if resp := debugJSON(t, "GET", ts.URL+"/v1/debug/queries", nil, &active); resp.StatusCode != http.StatusOK {
			t.Fatalf("active table: status %d", resp.StatusCode)
		}
		for i := range active {
			if active[i].RequestID == "cancel-me" {
				entry = &active[i]
				break
			}
		}
		if entry == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if entry.Kind != "match" {
		t.Errorf("in-flight kind %q, want match", entry.Kind)
	}
	if !validStages[entry.Stage] {
		t.Errorf("in-flight stage %q not a known stage", entry.Stage)
	}
	if len(entry.Digest) != 16 {
		t.Errorf("digest %q, want 16 hex chars", entry.Digest)
	}
	if entry.ElapsedMS < 0 || entry.BallsEvaluated < 0 {
		t.Errorf("negative progress: %+v", entry)
	}

	// Kill it.
	if resp := debugJSON(t, "DELETE", ts.URL+"/v1/debug/queries/cancel-me", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE in-flight query: status %d, want 204", resp.StatusCode)
	}

	// The caller's connection fails with the structured cancelled error.
	var res matchResult
	select {
	case res = <-resultc:
	case <-time.After(15 * time.Second):
		t.Fatal("cancelled match did not return")
	}
	if res.status != http.StatusRequestTimeout {
		t.Fatalf("cancelled match answered %d (%s), want 408", res.status, res.body)
	}
	var aerr Error
	if err := json.Unmarshal(res.body, &aerr); err != nil || aerr.Code != CodeCancelled {
		t.Fatalf("cancelled match body %q, want code %q", res.body, CodeCancelled)
	}

	// The record lands in the recent ring with outcome cancelled and the
	// stats the recorder collected up to the kill.
	var rec *QueryRecordJSON
	deadline = time.Now().Add(5 * time.Second)
	for rec == nil {
		if time.Now().After(deadline) {
			t.Fatal("cancelled query never reached /v1/debug/queries/recent")
		}
		var recent []QueryRecordJSON
		if resp := debugJSON(t, "GET", ts.URL+"/v1/debug/queries/recent", nil, &recent); resp.StatusCode != http.StatusOK {
			t.Fatalf("recent ring: status %d", resp.StatusCode)
		}
		for i := range recent {
			if recent[i].RequestID == "cancel-me" {
				rec = &recent[i]
				break
			}
		}
		if rec == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if rec.Outcome != "cancelled" || rec.Error == "" {
		t.Errorf("record outcome %q (error %q), want cancelled with a message", rec.Outcome, rec.Error)
	}
	if rec.Matches != 0 || rec.LatencyMS <= 0 {
		t.Errorf("record %+v", rec)
	}
	if rec.Stats == nil {
		t.Error("record carries no query_stats; /v1/debug always traces")
	}

	// A second DELETE finds nothing in flight.
	var gone Error
	if resp := debugJSON(t, "DELETE", ts.URL+"/v1/debug/queries/cancel-me", nil, &gone); resp.StatusCode != http.StatusNotFound || gone.Code != CodeNotFound {
		t.Errorf("second DELETE = %d (%s), want structured 404", resp.StatusCode, gone.Code)
	}
}

// TestDebugRecorderParity pins the acceptance invariant: a recorder-enabled
// server returns byte-identical matches and stats to a recorder-off one, and
// query_stats still appears only when asked for.
func TestDebugRecorderParity(t *testing.T) {
	g := generator.Synthetic(400, 1.2, 10, 63)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 64})
	off, _ := newTestServer(t, g, Config{})
	on, _ := newTestServer(t, g, Config{EnableDebug: true})

	for _, mode := range []string{ModePlain, ModePlus} {
		req := MatchRequest{PatternText: graph.FormatString(q), Query: QuerySpec{Mode: mode}}
		_, offBody := post(t, off.URL+"/v1/match", req)
		_, onBody := post(t, on.URL+"/v1/match", req)
		if !bytes.Equal(resultBytes(t, offBody), resultBytes(t, onBody)) {
			t.Errorf("mode %s: recorder changed the matched bytes:\noff: %s\non:  %s", mode, offBody, onBody)
		}
		// The recorder forces an internal trace; it must not leak onto the
		// wire without "stats": true.
		var mr MatchResponse
		if err := json.Unmarshal(onBody, &mr); err != nil {
			t.Fatal(err)
		}
		if mr.QueryStats != nil {
			t.Errorf("mode %s: recorder leaked query_stats without stats:true", mode)
		}
		// This is the third identical query against this server; no_plan
		// keeps it on the evaluation path, where a trace must report built
		// balls (a cache hit would legitimately report zero).
		req.Query.Stats = true
		req.Query.NoPlan = true
		_, statsBody := post(t, on.URL+"/v1/match", req)
		if err := json.Unmarshal(statsBody, &mr); err != nil {
			t.Fatal(err)
		}
		if mr.QueryStats == nil || mr.QueryStats.BallsBuilt <= 0 {
			t.Errorf("mode %s: stats:true with recorder on returned no query_stats", mode)
		}
	}

	// Completions landed in the recent ring with outcome ok and the match
	// count the response carried.
	var recent []QueryRecordJSON
	if resp := debugJSON(t, "GET", on.URL+"/v1/debug/queries/recent", nil, &recent); resp.StatusCode != http.StatusOK {
		t.Fatalf("recent ring: status %d", resp.StatusCode)
	}
	if len(recent) < 4 {
		t.Fatalf("recent ring holds %d records, want the 4 matches above", len(recent))
	}
	for _, rec := range recent {
		if rec.Kind != "match" || rec.Outcome != "ok" {
			t.Errorf("record %+v, want an ok match", rec)
		}
		if rec.Stats == nil {
			t.Errorf("record %s carries no stats", rec.RequestID)
		}
	}
	// Same shape, same digest; the ring groups repeats.
	if recent[0].Digest == "" || len(recent) > 1 && recent[0].Digest != recent[1].Digest {
		t.Errorf("same-shape queries got digests %q and %q", recent[0].Digest, recent[1].Digest)
	}
	// The shape is the work that runs: a mode alias is the same shape, a
	// different radius is not.
	digest := func(spec QuerySpec) string {
		req := MatchRequest{PatternText: graph.FormatString(q), Query: spec}
		return req.digest()
	}
	if a, b := digest(QuerySpec{Mode: "match"}), digest(QuerySpec{}); a != b {
		t.Errorf("mode aliases \"match\" and \"\" got digests %q and %q", a, b)
	}
	if a, b := digest(QuerySpec{Radius: 1}), digest(QuerySpec{Radius: 3}); a == b {
		t.Errorf("radius 1 and radius 3 share digest %q", a)
	}
}

// TestDebugSlowQueryLog wires the slow-query pipeline end to end through the
// server: a nanosecond threshold classifies every match as slow, fills the
// slow ring, and logs one structured warning through the access logger.
func TestDebugSlowQueryLog(t *testing.T) {
	var logBuf bytes.Buffer
	var lw syncWriter
	lw.w = &logBuf
	g := generator.Synthetic(200, 1.2, 8, 65)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 66})
	st := live.NewStore(g, live.Config{Workers: 2})
	ts := httptest.NewServer(NewLiveServer(st, Config{
		EnableDebug:        true,
		SlowQueryThreshold: time.Nanosecond,
		AccessLog:          slog.New(slog.NewJSONHandler(&lw, nil)),
	}))
	t.Cleanup(ts.Close)

	if resp, body := post(t, ts.URL+"/v1/match", MatchRequest{PatternText: graph.FormatString(q)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("match: status %d (%s)", resp.StatusCode, body)
	}
	var slow []QueryRecordJSON
	if resp := debugJSON(t, "GET", ts.URL+"/v1/debug/queries/slow", nil, &slow); resp.StatusCode != http.StatusOK {
		t.Fatalf("slow ring: status %d", resp.StatusCode)
	}
	if len(slow) != 1 || slow[0].Outcome != "ok" {
		t.Fatalf("slow ring %v, want the one match", slow)
	}
	found := false
	for _, line := range bytes.Split(logBuf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec["msg"] == "slow query" {
			found = true
			if rec["level"] != "WARN" || rec["kind"] != "match" || rec["latency_ms"] == nil {
				t.Errorf("slow query line %v", rec)
			}
		}
	}
	if !found {
		t.Errorf("no 'slow query' warning in the log: %s", logBuf.Bytes())
	}
}

// TestDebugStandingRegistration: standing-query registrations register with
// kind "standing" and record on completion like matches do.
func TestDebugStandingRegistration(t *testing.T) {
	b := graph.NewBuilder(nil)
	for i := 0; i < 6; i++ {
		b.AddNode([]string{"A", "B"}[i%2])
	}
	for i := int32(0); i < 5; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	st := live.NewStore(b.Build(), live.Config{Workers: 1})
	ts := httptest.NewServer(NewLiveServer(st, Config{EnableDebug: true}))
	t.Cleanup(ts.Close)

	resp, body := post(t, ts.URL+"/v1/queries", RegisterRequest{PatternText: "node a A\nnode b B\nedge a b"})
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d (%s)", resp.StatusCode, body)
	}
	var recent []QueryRecordJSON
	if r := debugJSON(t, "GET", ts.URL+"/v1/debug/queries/recent", nil, &recent); r.StatusCode != http.StatusOK {
		t.Fatalf("recent ring: status %d", r.StatusCode)
	}
	if len(recent) != 1 || recent[0].Kind != "standing" || recent[0].Outcome != "ok" {
		t.Fatalf("recent ring %v, want one ok standing record", recent)
	}
}

// TestDebugConcurrent interleaves matches, cancels of random ids and table
// scrapes — the workload the CI race step re-runs under -race.
func TestDebugConcurrent(t *testing.T) {
	g := generator.Synthetic(400, 1.2, 6, 67)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 68})
	ts, _ := newTestServer(t, g, Config{EnableDebug: true})
	pattern := graph.FormatString(q)

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				body, _ := json.Marshal(MatchRequest{PatternText: pattern})
				req, err := http.NewRequest("POST", ts.URL+"/v1/match", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set(RequestIDHeader, fmt.Sprintf("c%d-%d", c, i))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				// The canceller goroutine targets these very ids, so a 408
				// (cancelled mid-flight) is as legal as a 200.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusRequestTimeout {
					t.Errorf("match: status %d", resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			var active []ActiveQueryJSON
			debugJSON(t, "GET", ts.URL+"/v1/debug/queries", nil, &active)
			var recent []QueryRecordJSON
			debugJSON(t, "GET", ts.URL+"/v1/debug/queries/recent", nil, &recent)
			// Cancels race the queries' own completion; either answer is
			// legal, neither may corrupt state.
			debugJSON(t, "DELETE", ts.URL+fmt.Sprintf("/v1/debug/queries/c%d-%d", i%4, i%8), nil, nil)
		}
	}()
	wg.Wait()

	var active []ActiveQueryJSON
	if resp := debugJSON(t, "GET", ts.URL+"/v1/debug/queries", nil, &active); resp.StatusCode != http.StatusOK {
		t.Fatalf("final active table: status %d", resp.StatusCode)
	}
	if len(active) != 0 {
		t.Errorf("queries still in flight after all returned: %v", active)
	}
}
