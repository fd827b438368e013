package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/graph"
	"repro/internal/live"
)

// chainStore builds a live store over A -> B -> C -> A -> B -> C.
func chainStore(t *testing.T) *live.Store {
	t.Helper()
	labels := []string{"A", "B", "C"}
	b := graph.NewBuilder(nil)
	for i := 0; i < 6; i++ {
		b.AddNode(labels[i%len(labels)])
	}
	for i := int32(0); i < 5; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return live.NewStore(b.Build(), live.Config{Workers: 2})
}

func newLiveTestServer(t *testing.T) (*httptest.Server, *live.Store) {
	t.Helper()
	s := chainStore(t)
	ts := httptest.NewServer(NewLiveServer(s, Config{}))
	t.Cleanup(ts.Close)
	return ts, s
}

func doJSON(t *testing.T, method, url string, req, resp any) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if req != nil {
		if err := json.NewEncoder(&body).Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	httpReq, err := http.NewRequest(method, url, &body)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil && r.StatusCode < 300 {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestLiveServerLifecycle(t *testing.T) {
	ts, _ := newLiveTestServer(t)

	// Health before any update.
	var health HealthJSON
	if r := doJSON(t, "GET", ts.URL+"/v1/healthz", nil, &health); r.StatusCode != 200 {
		t.Fatalf("healthz status %d", r.StatusCode)
	}
	if health.Status != "ok" || health.Version != 0 || health.Nodes != 6 || health.Edges != 5 || health.Queries != 0 {
		t.Fatalf("healthz = %+v", health)
	}

	// Register a standing query with the structured schema.
	var qj QueryJSON
	r := doJSON(t, "POST", ts.URL+"/v1/queries", RegisterRequest{Pattern: &PatternJSON{
		Nodes: []PatternNode{{ID: "a", Label: "A"}, {ID: "b", Label: "B"}},
		Edges: []PatternEdge{{U: "a", V: "b"}},
	}}, &qj)
	if r.StatusCode != http.StatusCreated {
		t.Fatalf("register status %d", r.StatusCode)
	}
	if qj.NumMatches != 2 || qj.Version != 0 {
		t.Fatalf("register response %+v", qj)
	}

	// One-shot match agrees and answers against the same graph.
	var mr MatchResponse
	doJSON(t, "POST", ts.URL+"/v1/match", MatchRequest{PatternText: "node a A\nnode b B\nedge a b"}, &mr)
	if len(mr.Matches) != 2 {
		t.Fatalf("one-shot match found %d, want 2", len(mr.Matches))
	}

	// Apply a batch; the standing query updates.
	var ur UpdateResponse
	r = doJSON(t, "POST", ts.URL+"/v1/update", UpdateRequest{Updates: []MutationJSON{DeleteEdge(0, 1)}}, &ur)
	if r.StatusCode != 200 || ur.Version != 1 {
		t.Fatalf("update status %d, %+v", r.StatusCode, ur)
	}
	if _, ok := ur.Recomputed[qj.ID]; !ok {
		t.Fatalf("update response missing recompute stats: %+v", ur)
	}

	var got QueryJSON
	doJSON(t, "GET", fmt.Sprintf("%s/v1/queries/%d", ts.URL, qj.ID), nil, &got)
	if got.Version != 1 || got.NumMatches != 1 || len(got.Matches) != 1 {
		t.Fatalf("query after update = %+v", got)
	}

	// The delta reflects the removal.
	var delta DeltaJSON
	doJSON(t, "GET", fmt.Sprintf("%s/v1/queries/%d/delta", ts.URL, qj.ID), nil, &delta)
	if delta.FromVersion != 0 || delta.Version != 1 || len(delta.Added) != 0 || len(delta.Removed) != 1 {
		t.Fatalf("delta = %+v", delta)
	}

	// One-shot /v1/match answers against the NEW version.
	doJSON(t, "POST", ts.URL+"/v1/match", MatchRequest{PatternText: "node a A\nnode b B\nedge a b"}, &mr)
	if len(mr.Matches) != 1 {
		t.Fatalf("one-shot match after update found %d, want 1", len(mr.Matches))
	}

	// Listing and unregistration.
	var list []QueryJSON
	doJSON(t, "GET", ts.URL+"/v1/queries", nil, &list)
	if len(list) != 1 || list[0].ID != qj.ID {
		t.Fatalf("list = %+v", list)
	}
	if r := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/queries/%d", ts.URL, qj.ID), nil, nil); r.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", r.StatusCode)
	}
	doJSON(t, "GET", ts.URL+"/v1/healthz", nil, &health)
	if health.Queries != 0 || health.Version != 1 {
		t.Fatalf("healthz after unregister = %+v", health)
	}
}

func TestLiveServerErrors(t *testing.T) {
	ts, _ := newLiveTestServer(t)
	cases := []struct {
		method, path string
		body         any
		want         int
		code         string
	}{
		{"GET", "/v1/match", nil, 405, CodeMethodNotAllowed},
		{"PUT", "/v1/match", nil, 405, CodeMethodNotAllowed},
		{"GET", "/v1/update", nil, 405, CodeMethodNotAllowed},
		{"DELETE", "/v1/queries", nil, 405, CodeMethodNotAllowed},
		{"POST", "/v1/queries/1", nil, 405, CodeMethodNotAllowed},
		{"POST", "/v1/update", UpdateRequest{}, 400, CodeInvalidMutation},
		{"POST", "/v1/update", UpdateRequest{Updates: []MutationJSON{{Op: "bogus"}}}, 400, CodeInvalidMutation},
		// Destructive ops must name their target explicitly: a missing or
		// misspelled field would otherwise default to node 0.
		{"POST", "/v1/update", json.RawMessage(`{"updates":[{"op":"delete_node"}]}`), 400, CodeInvalidMutation},
		{"POST", "/v1/update", json.RawMessage(`{"updates":[{"op":"delete_node","id":2}]}`), 400, CodeInvalidRequest},
		{"POST", "/v1/update", json.RawMessage(`{"updates":[{"op":"insert_edge","u":1}]}`), 400, CodeInvalidMutation},
		{"POST", "/v1/update", json.RawMessage(`{"updates":[{"op":"add_node"}]}`), 400, CodeInvalidMutation},
		{"POST", "/v1/update", json.RawMessage(`{"updatez":[]}`), 400, CodeInvalidRequest},
		{"POST", "/v1/queries", RegisterRequest{}, 400, CodeInvalidRequest},
		{"POST", "/v1/queries", RegisterRequest{PatternText: "node a A\nnode b B"}, 400, CodeInvalidPattern},
		{"POST", "/v1/queries", RegisterRequest{Pattern: &PatternJSON{
			Nodes: []PatternNode{{ID: "a", Label: "A"}, {ID: "b", Label: "B"}},
			Edges: []PatternEdge{{U: "a", V: "b", Bound: "*"}},
		}}, 400, CodeUnsupportedBound},
		{"GET", "/v1/queries/999", nil, 404, CodeNotFound},
		{"GET", "/v1/queries/abc", nil, 400, CodeInvalidRequest},
		{"DELETE", "/v1/queries/999", nil, 404, CodeNotFound},
	}
	for _, tc := range cases {
		var body bytes.Buffer
		if tc.body != nil {
			if err := json.NewEncoder(&body).Encode(tc.body); err != nil {
				t.Fatal(err)
			}
		}
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, &body)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw := new(bytes.Buffer)
		_, _ = raw.ReadFrom(r.Body)
		r.Body.Close()
		if r.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.method, tc.path, r.StatusCode, tc.want, raw.Bytes())
			continue
		}
		var e Error
		if err := json.Unmarshal(raw.Bytes(), &e); err != nil || e.Code != tc.code {
			t.Errorf("%s %s: code %q, want %q (%s)", tc.method, tc.path, e.Code, tc.code, raw.Bytes())
		}
	}
}

// TestLiveUpdateBodyTooLarge proves the 413 mapping on the mutable path.
func TestLiveUpdateBodyTooLarge(t *testing.T) {
	s := chainStore(t)
	ts := httptest.NewServer(NewLiveServer(s, Config{MaxBodyBytes: 128}))
	t.Cleanup(ts.Close)

	muts := make([]MutationJSON, 32)
	for i := range muts {
		muts[i] = AddNode("overflow-label")
	}
	r := doJSON(t, "POST", ts.URL+"/v1/update", UpdateRequest{Updates: muts}, nil)
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", r.StatusCode)
	}
}
