package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/obs"
)

// postTraced is post with a traceparent header attached, returning the
// response (whose headers carry the echoed traceparent) and its body.
func postTraced(t *testing.T, url, traceparent string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set(TraceparentHeader, traceparent)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// keptTraces fetches GET /v1/debug/traces.
func keptTraces(t *testing.T, baseURL string) []TraceSummaryJSON {
	t.Helper()
	var out []TraceSummaryJSON
	if resp := debugJSON(t, "GET", baseURL+"/v1/debug/traces", nil, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/traces: status %d", resp.StatusCode)
	}
	return out
}

// fetchTrace fetches one span tree by id.
func fetchTrace(t *testing.T, baseURL, id string) TraceJSON {
	t.Helper()
	var tj TraceJSON
	if resp := debugJSON(t, "GET", baseURL+"/v1/debug/traces/"+id, nil, &tj); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/traces/%s: status %d", id, resp.StatusCode)
	}
	return tj
}

// childNames returns the names of a span's direct children, in order.
func childNames(sj *SpanJSON) []string {
	names := make([]string, len(sj.Children))
	for i := range sj.Children {
		names[i] = sj.Children[i].Name
	}
	return names
}

// findChild returns the first direct child with the given name, or nil.
func findChild(sj *SpanJSON, name string) *SpanJSON {
	for i := range sj.Children {
		if sj.Children[i].Name == name {
			return &sj.Children[i]
		}
	}
	return nil
}

// TestTracesGate: the traces routes exist only behind EnableDebug, answer an
// empty list before anything is kept, and a structured 404 for unknown or
// malformed trace ids.
func TestTracesGate(t *testing.T) {
	g := generator.Synthetic(100, 1.2, 6, 81)
	off, _ := newTestServer(t, g, Config{})
	on, _ := newTestServer(t, g, Config{EnableDebug: true})

	var e Error
	if resp := debugJSON(t, "GET", off.URL+"/v1/debug/traces", nil, &e); resp.StatusCode != http.StatusNotFound {
		t.Errorf("debug off: GET /v1/debug/traces = %d, want 404", resp.StatusCode)
	}

	kept := keptTraces(t, on.URL)
	if len(kept) != 0 {
		t.Errorf("fresh server keeps %d traces, want none", len(kept))
	}
	for _, id := range []string{
		"0123456789abcdef0123456789abcdef", // valid shape, never kept
		"not-a-trace-id",
		"abc",
	} {
		var me Error
		resp := debugJSON(t, "GET", on.URL+"/v1/debug/traces/"+id, nil, &me)
		if resp.StatusCode != http.StatusNotFound || me.Code != CodeNotFound {
			t.Errorf("GET traces/%s = %d (%s), want structured 404", id, resp.StatusCode, me.Code)
		}
	}
}

// TestTracedMatchEndToEnd pins the acceptance path: a client traceparent
// with the sampled flag propagates through a /v1/match — same trace id
// echoed back with the server's root span id, the trace kept with the
// client's span as remote parent, every engine stage a child span of the
// root, and the flight-recorder record carrying the trace id as the pivot.
func TestTracedMatchEndToEnd(t *testing.T) {
	g := generator.Synthetic(300, 1.2, 8, 83)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 84})
	ts, _ := newTestServer(t, g, Config{EnableDebug: true})

	const (
		clientTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
		clientSpan  = "00f067aa0ba902b7"
	)
	tp := "00-" + clientTrace + "-" + clientSpan + "-01"
	resp, body := postTraced(t, ts.URL+"/v1/match", tp, MatchRequest{
		PatternText: graph.FormatString(q),
		Query:       QuerySpec{Mode: ModePlus},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced match: status %d (%s)", resp.StatusCode, body)
	}

	// The response echoes the effective context: the client's trace id, the
	// server root's (new) span id, sampled still set.
	echo, ok := obs.ParseTraceparent(resp.Header.Get(TraceparentHeader))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.Header.Get(TraceparentHeader))
	}
	if echo.TraceID.String() != clientTrace {
		t.Fatalf("echoed trace id %s, want the client's %s", echo.TraceID, clientTrace)
	}
	if echo.SpanID.String() == clientSpan {
		t.Error("echoed span id is the client's own — the server must mint its root span")
	}
	if !echo.Sampled() {
		t.Error("client sent sampled=1 but the echo dropped the flag")
	}

	// The sampled flag forces the tail keep.
	kept := keptTraces(t, ts.URL)
	if len(kept) != 1 || kept[0].TraceID != clientTrace {
		t.Fatalf("kept traces %+v, want exactly the propagated %s", kept, clientTrace)
	}
	if kept[0].Root != "POST /v1/match" || kept[0].Reason != "sampled" {
		t.Errorf("kept summary root=%q reason=%q, want POST /v1/match, sampled", kept[0].Root, kept[0].Reason)
	}

	tj := fetchTrace(t, ts.URL, clientTrace)
	if tj.ParentSpanID != clientSpan {
		t.Errorf("parent_span_id %q, want the client span %s", tj.ParentSpanID, clientSpan)
	}
	if tj.Root == nil || tj.Root.SpanID != echo.SpanID.String() {
		t.Fatalf("trace root %+v, want the echoed span id %s", tj.Root, echo.SpanID)
	}
	if tj.Root.Attrs["http_status"] != http.StatusOK {
		t.Errorf("root http_status attr %d, want 200", tj.Root.Attrs["http_status"])
	}
	for _, stage := range []string{"prepare", "filter", "eval", "merge"} {
		if findChild(tj.Root, stage) == nil {
			t.Errorf("root children %v miss engine stage %q", childNames(tj.Root), stage)
		}
	}
	// The filter span says how many centers the global filter left.
	if filter := findChild(tj.Root, "filter"); filter != nil {
		if _, ok := filter.Attrs["candidate_centers"]; !ok {
			t.Errorf("filter span attrs %v miss %q", filter.Attrs, "candidate_centers")
		}
	}
	// The pooled evaluation runs under the eval span: its workers appear as
	// eval.worker children carrying ball counts.
	if eval := findChild(tj.Root, "eval"); eval != nil {
		if w := findChild(eval, "eval.worker"); w == nil {
			t.Errorf("eval children %v hold no eval.worker span", childNames(eval))
		}
	}

	// The flight recorder links here: its record carries the trace id.
	var recent []QueryRecordJSON
	if r := debugJSON(t, "GET", ts.URL+"/v1/debug/queries/recent", nil, &recent); r.StatusCode != http.StatusOK {
		t.Fatalf("recent ring: status %d", r.StatusCode)
	}
	if len(recent) != 1 || recent[0].TraceID != clientTrace {
		t.Fatalf("recent ring %+v, want one record with trace_id %s", recent, clientTrace)
	}
}

// TestTraceMalformedTraceparent: garbage propagation headers never fail the
// request — the server mints a fresh trace and answers its own valid
// traceparent.
func TestTraceMalformedTraceparent(t *testing.T) {
	g := generator.Synthetic(100, 1.2, 6, 85)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 2, Alpha: 1.2, Seed: 86})
	ts, _ := newTestServer(t, g, Config{EnableDebug: true})
	req := MatchRequest{PatternText: graph.FormatString(q)}

	for _, tp := range []string{
		"00-xyzf92f3577b34da6a3ce929d0e0e473-00f067aa0ba902b7-01", // non-hex
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"totally wrong",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // truncated
	} {
		resp, body := postTraced(t, ts.URL+"/v1/match", tp, req)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("traceparent %q: status %d (%s), want 200", tp, resp.StatusCode, body)
			continue
		}
		echo, ok := obs.ParseTraceparent(resp.Header.Get(TraceparentHeader))
		if !ok {
			t.Errorf("traceparent %q: response echo %q does not parse", tp, resp.Header.Get(TraceparentHeader))
			continue
		}
		if strings.Contains(tp, echo.TraceID.String()) {
			t.Errorf("traceparent %q: server adopted a trace id from a malformed header", tp)
		}
	}
}

// TestTraceMatchParity pins the acceptance invariant: a tracing server
// returns byte-identical matches and stats to an untraced one, traceparent
// or not.
func TestTraceMatchParity(t *testing.T) {
	g := generator.Synthetic(400, 1.2, 10, 87)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 88})
	off, _ := newTestServer(t, g, Config{})
	on, _ := newTestServer(t, g, Config{EnableDebug: true, TraceSampleRate: 1})

	for _, mode := range []string{ModePlain, ModePlus} {
		req := MatchRequest{PatternText: graph.FormatString(q), Query: QuerySpec{Mode: mode}}
		_, offBody := post(t, off.URL+"/v1/match", req)
		_, onBody := postTraced(t, on.URL+"/v1/match",
			"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", req)
		if !bytes.Equal(resultBytes(t, offBody), resultBytes(t, onBody)) {
			t.Errorf("mode %s: tracing changed the matched bytes:\noff: %s\non:  %s", mode, offBody, onBody)
		}
	}
}

// TestTraceUpdateSpans: a traced /v1/update records the store's work under
// the root — one live.apply span for the mutation batch and a live.maintain
// span per standing query brought current — each saying what the batch cost:
// adjacency pages rebuilt, balls built and balls spared.
func TestTraceUpdateSpans(t *testing.T) {
	st := chainStore(t)
	ts := httptest.NewServer(NewLiveServer(st, Config{EnableDebug: true, TraceSampleRate: 1}))
	t.Cleanup(ts.Close)

	if resp, body := post(t, ts.URL+"/v1/queries", RegisterRequest{
		PatternText: "node a A\nnode b B\nedge a b",
	}); resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d (%s)", resp.StatusCode, body)
	}
	if resp, body := post(t, ts.URL+"/v1/match", MatchRequest{
		PatternText: "node a A\nnode b B\nedge a b",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("match: status %d (%s)", resp.StatusCode, body)
	}
	resp, body := post(t, ts.URL+"/v1/update", UpdateRequest{
		Updates: []MutationJSON{DeleteEdge(0, 1), InsertEdge(0, 2)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d (%s)", resp.StatusCode, body)
	}
	echo, ok := obs.ParseTraceparent(resp.Header.Get(TraceparentHeader))
	if !ok {
		t.Fatalf("update response carries no traceparent")
	}

	tj := fetchTrace(t, ts.URL, echo.TraceID.String())
	if tj.Root == nil || tj.Root.Name != "POST /v1/update" {
		t.Fatalf("trace root %+v, want POST /v1/update", tj.Root)
	}
	apply := findChild(tj.Root, "live.apply")
	if apply == nil {
		t.Fatalf("root children %v hold no live.apply span", childNames(tj.Root))
	}
	if apply.Attrs["mutations"] != 2 {
		t.Errorf("live.apply mutations attr %d, want 2", apply.Attrs["mutations"])
	}
	// Nodes 0, 1 and 2 had a row rewritten; no label moved. The six nodes
	// share one adjacency page per direction.
	if apply.Attrs["pages_copied"] != 2 {
		t.Errorf("live.apply pages_copied attr %d, want 2", apply.Attrs["pages_copied"])
	}
	// Dirty centers 0..3; 2 carries no pattern label, 0 (A) lost its B
	// successor and 1 (B) its A predecessor, 3 (A) still has 4 (B).
	if maintain := findChild(tj.Root, "live.maintain"); maintain == nil {
		t.Errorf("root children %v hold no live.maintain span for the standing query", childNames(tj.Root))
	} else if maintain.Attrs["balls"] != 1 || maintain.Attrs["unanchored"] != 2 {
		t.Errorf("live.maintain attrs %v, want balls 1, unanchored 2", maintain.Attrs)
	}
}

// TestTraceErrorKept: tail sampling keeps errored requests with no head
// sampling and no propagation at all.
func TestTraceErrorKept(t *testing.T) {
	g := generator.Synthetic(100, 1.2, 6, 89)
	ts, _ := newTestServer(t, g, Config{EnableDebug: true})

	if resp, body := post(t, ts.URL+"/v1/match", MatchRequest{PatternText: "bogus directive"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pattern: status %d (%s), want 400", resp.StatusCode, body)
	}
	kept := keptTraces(t, ts.URL)
	if len(kept) != 1 || kept[0].Reason != "error" {
		t.Fatalf("kept traces %+v, want the one errored request", kept)
	}
	tj := fetchTrace(t, ts.URL, kept[0].TraceID)
	if tj.Root == nil || tj.Root.Status != "error" || tj.Root.Attrs["http_status"] != http.StatusBadRequest {
		t.Fatalf("errored root %+v, want status error with http_status 400", tj.Root)
	}
}
