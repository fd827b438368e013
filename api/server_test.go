package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/live"
)

func newTestServer(t *testing.T, g *graph.Graph, cfg Config) (*httptest.Server, *engine.Engine) {
	t.Helper()
	st := live.NewStore(g, live.Config{Workers: 4})
	ts := httptest.NewServer(NewLiveServer(st, cfg))
	t.Cleanup(ts.Close)
	return ts, st.Engine()
}

// post sends one JSON request and returns the response and its body.
func post(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

func TestV1Match(t *testing.T) {
	g := generator.Synthetic(400, 1.2, 10, 73)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 74})
	ts, e := newTestServer(t, g, Config{})

	want, err := e.Match(context.Background(), q, engine.PlusQuery())
	if err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, ts.URL+"/v1/match", MatchRequest{
		PatternText: graph.FormatString(q),
		Query:       QuerySpec{Mode: ModePlus},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("Deprecation"); h != "" {
		t.Errorf("/v1/match answered with Deprecation header %q", h)
	}
	var mr MatchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Matches) != want.Len() {
		t.Fatalf("server returned %d matches, engine %d", len(mr.Matches), want.Len())
	}
	for i, m := range mr.Matches {
		if m.Center != want.Subgraphs[i].Center || len(m.Nodes) != len(want.Subgraphs[i].Nodes) {
			t.Errorf("match %d diverges from direct engine result", i)
		}
		if len(m.Rel) != q.NumNodes() {
			t.Errorf("match %d: rel has %d pattern nodes, want %d", i, len(m.Rel), q.NumNodes())
		}
	}
	if mr.Stats.BallsExamined != want.Stats.BallsExamined {
		t.Errorf("stats diverge: %+v vs %+v", mr.Stats, want.Stats)
	}

	// The structured pattern answers the same result: FromGraph keeps node
	// order, so even the rel keys line up.
	resp, body2 := post(t, ts.URL+"/v1/match", MatchRequest{
		Pattern: FromGraph(q),
		Query:   QuerySpec{Mode: ModePlus},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("structured pattern: status %d: %s", resp.StatusCode, body2)
	}
	if !bytes.Equal(resultBytes(t, body), resultBytes(t, body2)) {
		t.Error("structured pattern and pattern_text answered different results")
	}
}

// resultBytes strips the timing field, leaving the deterministic result
// portion (matches + stats) of a match response body.
func resultBytes(t *testing.T, body []byte) []byte {
	t.Helper()
	var r struct {
		Matches json.RawMessage `json:"matches"`
		Stats   json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("unmarshaling result: %v (%s)", err, body)
	}
	return append(append([]byte{}, r.Matches...), r.Stats...)
}

func TestV1TopK(t *testing.T) {
	g := generator.Synthetic(400, 1.2, 10, 79)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 80})
	ts, _ := newTestServer(t, g, Config{})

	resp, body := post(t, ts.URL+"/v1/match", MatchRequest{
		PatternText: graph.FormatString(q),
		Query:       QuerySpec{TopK: 2, Metric: MetricCompactness},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var mr MatchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Matches) > 2 {
		t.Fatalf("top_k=2 returned %d matches", len(mr.Matches))
	}
	var prev float64 = 2 // scores are in (0,1]
	for i, m := range mr.Matches {
		if m.Score == nil {
			t.Fatalf("match %d: ranked response missing score", i)
		}
		if *m.Score > prev {
			t.Error("scores not descending")
		}
		prev = *m.Score
	}
}

func TestV1MatchStream(t *testing.T) {
	g := generator.Synthetic(400, 1.2, 10, 83)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 84})
	ts, e := newTestServer(t, g, Config{})

	want, err := e.Match(context.Background(), q, engine.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// no_plan keeps the stream on the evaluation path so its stats compare
	// exactly against the unplanned engine.Match above.
	body, err := json.Marshal(MatchRequest{PatternText: graph.FormatString(q),
		Query: QuerySpec{NoPlan: true}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/match/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q, want application/x-ndjson", ct)
	}

	// Duplicate subgraphs keep whichever center arrived first on the
	// streaming path, so compare node/edge signatures, not centers.
	sig := func(m SubgraphJSON) string { return fmt.Sprint(m.Nodes, m.Edges) }
	streamed := make(map[string]bool)
	var done *StreamDoneJSON
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev StreamEventJSON
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case ev.Match != nil:
			if done != nil {
				t.Fatal("match after done trailer")
			}
			streamed[sig(*ev.Match)] = true
		case ev.Done != nil:
			done = ev.Done
		default:
			t.Fatalf("stream line with neither match nor done: %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done == nil {
		t.Fatal("stream ended without done trailer")
	}
	if done.Code != "" || done.Error != "" {
		t.Fatalf("stream reported error: %s (%s)", done.Error, done.Code)
	}
	if done.Matches != want.Len() || len(streamed) != want.Len() {
		t.Fatalf("streamed %d distinct matches (trailer says %d), engine found %d",
			len(streamed), done.Matches, want.Len())
	}
	for _, ps := range want.Subgraphs {
		if !streamed[sig(FromSubgraph(ps))] {
			t.Errorf("stream missed subgraph centered at %d", ps.Center)
		}
	}
	if done.Stats.BallsExamined != want.Stats.BallsExamined {
		t.Errorf("stream stats %+v, engine %+v", done.Stats, want.Stats)
	}
}

func TestV1Errors(t *testing.T) {
	g := generator.Synthetic(200, 1.2, 10, 83)
	ts, _ := newTestServer(t, g, Config{})

	bounded := &PatternJSON{
		Nodes: []PatternNode{{ID: "a", Label: "l0"}, {ID: "b", Label: "l1"}},
		Edges: []PatternEdge{{U: "a", V: "b", Bound: "3"}},
	}
	cases := []struct {
		name   string
		path   string
		req    any
		status int
		code   string
	}{
		{"missing pattern", "/v1/match", MatchRequest{}, 400, CodeInvalidRequest},
		{"both pattern forms", "/v1/match", MatchRequest{Pattern: FromGraph(g), PatternText: "edge a b"}, 400, CodeInvalidRequest},
		{"malformed pattern text", "/v1/match", MatchRequest{PatternText: "bogus directive"}, 400, CodeInvalidPattern},
		{"disconnected pattern", "/v1/match", MatchRequest{PatternText: "node a l0\nnode b l1\n"}, 400, CodeInvalidPattern},
		{"invalid structured pattern", "/v1/match", MatchRequest{Pattern: &PatternJSON{Nodes: []PatternNode{{Label: ""}}}}, 400, CodeInvalidPattern},
		{"bounded edge", "/v1/match", MatchRequest{Pattern: bounded}, 400, CodeUnsupportedBound},
		{"unknown mode", "/v1/match", MatchRequest{PatternText: "edge a b", Query: QuerySpec{Mode: "nope"}}, 400, CodeInvalidQuery},
		{"unknown metric", "/v1/match", MatchRequest{PatternText: "edge a b", Query: QuerySpec{TopK: 1, Metric: "nope"}}, 400, CodeInvalidQuery},
		{"negative limit", "/v1/match", MatchRequest{PatternText: "edge a b", Query: QuerySpec{Limit: -1}}, 400, CodeInvalidQuery},
		{"top_k on stream", "/v1/match/stream", MatchRequest{PatternText: "edge a b", Query: QuerySpec{TopK: 2}}, 400, CodeInvalidQuery},
		{"v1 negative radius", "/v1/match", MatchRequest{PatternText: "edge a b", Query: QuerySpec{Radius: -1}}, 400, CodeInvalidQuery},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+tc.path, tc.req)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			var e Error
			if err := json.Unmarshal(body, &e); err != nil || e.Message == "" {
				t.Fatalf("error response not structured: %s", body)
			}
			if e.Code != tc.code {
				t.Errorf("code %q, want %q (%s)", e.Code, tc.code, e.Message)
			}
		})
	}

	// Invalid JSON body.
	resp, err := http.Post(ts.URL+"/v1/match", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	var e Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || e.Code != CodeInvalidRequest {
		t.Fatalf("invalid JSON: status %d code %q", resp.StatusCode, e.Code)
	}

	// A body is one JSON value: bytes after it answer 400, on the strict
	// update endpoint too.
	for _, tc := range []struct{ name, path, body string }{
		{"match, trailing garbage", "/v1/match", `{"pattern_text":"edge a b"} trailing garbage`},
		{"match, two values", "/v1/match", `{"pattern_text":"edge a b"}{"pattern_text":"edge b a"}`},
		{"stream, trailing garbage", "/v1/match/stream", `{"pattern_text":"edge a b"} junk`},
		{"update, trailing junk", "/v1/update", `{"updates":[{"op":"add_node","label":"l0"}]} junk`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e Error
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || e.Code != CodeInvalidRequest {
				t.Fatalf("status %d code %q (%s), want 400 %s", resp.StatusCode, e.Code, e.Message, CodeInvalidRequest)
			}
		})
	}

	// Unknown routes answer a structured 404.
	resp, body := post(t, ts.URL+"/v1/nope", struct{}{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: status %d (%s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Code != CodeNotFound {
		t.Fatalf("unknown route not structured: %s", body)
	}
}

// TestV1MatchContentLength: a match answer longer than net/http's 2 KB
// pre-chunking buffer still carries its length, and is not chunked.
func TestV1MatchContentLength(t *testing.T) {
	g := generator.Synthetic(2000, 1.2, 10, 91)
	ts, _ := newTestServer(t, g, Config{})
	resp, body := post(t, ts.URL+"/v1/match", MatchRequest{PatternText: "node a l0\nnode b l1\nedge a b\n"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	if len(body) <= 2048 {
		t.Fatalf("answer of %d bytes, want more than 2 KB", len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v for a %d-byte body",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

// TestV1BodyTooLarge proves oversized request bodies answer 413 with the
// body_too_large code instead of a generic 400.
func TestV1BodyTooLarge(t *testing.T) {
	g := generator.Synthetic(200, 1.2, 10, 87)
	ts, _ := newTestServer(t, g, Config{MaxBodyBytes: 256})

	big := MatchRequest{PatternText: strings.Repeat("# padding\n", 100) + "edge a b"}
	resp, body := post(t, ts.URL+"/v1/match", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", resp.StatusCode, body)
	}
	var e Error
	if err := json.Unmarshal(body, &e); err != nil || e.Code != CodeBodyTooLarge {
		t.Fatalf("413 body not structured: %s", body)
	}
}

// TestV1MethodRouting proves every route dispatches by method pattern:
// wrong methods answer a structured 405 with an Allow header, including
// GET-only /healthz.
func TestV1MethodRouting(t *testing.T) {
	g := generator.Synthetic(200, 1.2, 10, 89)
	ts, _ := newTestServer(t, g, Config{})

	cases := []struct {
		method, path string
		want         int
	}{
		{"GET", "/v1/match", 405},
		{"PUT", "/v1/match", 405},
		{"GET", "/v1/match/stream", 405},
		{"POST", "/v1/graph", 405},
		{"POST", "/v1/healthz", 405},
		{"DELETE", "/v1/healthz", 405},
		{"GET", "/v1/healthz", 200},
		// The pre-/v1 unversioned aliases are gone, not merely deprecated.
		{"GET", "/healthz", 404},
		{"POST", "/match", 404},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			continue
		}
		if tc.want == http.StatusMethodNotAllowed {
			if resp.Header.Get("Allow") == "" {
				t.Errorf("%s %s: 405 without Allow header", tc.method, tc.path)
			}
			var e Error
			if err := json.Unmarshal(buf.Bytes(), &e); err != nil || e.Code != CodeMethodNotAllowed {
				t.Errorf("%s %s: 405 body not structured: %s", tc.method, tc.path, buf.Bytes())
			}
		}
	}
}

func TestV1Deadline(t *testing.T) {
	// A graph big enough that a full plain scan cannot finish in 1ms.
	g := generator.Synthetic(8000, 1.2, 5, 89)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 4, Alpha: 1.2, Seed: 90})
	ts, _ := newTestServer(t, g, Config{DefaultTimeout: time.Millisecond})

	resp, body := post(t, ts.URL+"/v1/match", MatchRequest{PatternText: graph.FormatString(q)})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	var e Error
	if err := json.Unmarshal(body, &e); err != nil || e.Code != CodeDeadlineExceeded {
		t.Fatalf("504 body not structured: %s", body)
	}
}

func TestV1GraphAndHealth(t *testing.T) {
	g := generator.Synthetic(300, 1.2, 10, 97)
	ts, _ := newTestServer(t, g, Config{})

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthJSON
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Nodes != g.NumNodes() || h.Edges != g.NumEdges() {
		t.Errorf("healthz %+v does not match %v", h, g)
	}

	resp, err = http.Get(ts.URL + "/v1/graph")
	if err != nil {
		t.Fatal(err)
	}
	var info GraphInfoJSON
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Errorf("graph info %+v does not match %v", info, g)
	}
}

// TestV1ConcurrentRequests floods the handler from many clients — with
// novel labels in some patterns — to exercise the race-free parse path
// under real HTTP concurrency, across both pattern forms.
func TestV1ConcurrentRequests(t *testing.T) {
	g := generator.Synthetic(300, 1.2, 10, 101)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 102})
	ts, _ := newTestServer(t, g, Config{})
	requests := []MatchRequest{
		{PatternText: graph.FormatString(q)},
		{Pattern: FromGraph(q)},
		{PatternText: "node a l0\nnode b some-novel-label\nedge a b\n"},
		{Pattern: &PatternJSON{
			Nodes: []PatternNode{{ID: "x", Label: "another-novel-label"}, {ID: "y", Label: "l0"}},
			Edges: []PatternEdge{{U: "x", V: "y"}, {U: "y", V: "x"}},
		}},
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				req := requests[(c+rep)%len(requests)]
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()
}
