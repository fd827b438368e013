package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/live"
)

var updateWireGolden = flag.Bool("update", false, "rewrite testdata/wire_golden.txt from the current implementation")

// elapsedMS matches the one timing field of a match body or stream trailer.
var elapsedMS = regexp.MustCompile(`"elapsed_ms":[-+.0-9eE]+`)

// TestWireGolden pins the bytes the /v1 handler answers for a fixed graph:
// /v1/match in both modes, with top_k and with limit, a stream, an
// 11-node pattern (so its rel keys run 0, 1, 10, 2, … as strings sort), and
// a standing query's result and delta across one update. Only elapsed_ms
// is blanked. testdata/wire_golden.txt was written before the match
// relation became a slice indexed by pattern node; any byte that moves is a
// wire change.
func TestWireGolden(t *testing.T) {
	g := generator.Synthetic(600, 1.2, 12, 31)
	ts := httptest.NewServer(NewLiveServer(live.NewStore(g, live.Config{Workers: 2}), Config{}))
	t.Cleanup(ts.Close)

	var out bytes.Buffer
	call := func(name, method, path string, req any) []byte {
		t.Helper()
		var body []byte
		if req != nil {
			var err error
			if body, err = json.Marshal(req); err != nil {
				t.Fatal(err)
			}
		}
		hreq, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var got bytes.Buffer
		if _, err := got.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, got.Bytes())
		}
		fmt.Fprintf(&out, "== %s %s %s\n", name, method, path)
		out.Write(elapsedMS.ReplaceAll(got.Bytes(), []byte(`"elapsed_ms":0`)))
		return got.Bytes()
	}
	sample := func(nodes int, seed int64) *graph.Graph {
		q := generator.SamplePattern(g, generator.PatternOptions{Nodes: nodes, Alpha: 1.2, Seed: seed})
		if q.NumNodes() != nodes {
			t.Fatalf("sampled %d pattern nodes, want %d", q.NumNodes(), nodes)
		}
		return q
	}

	small, wide := FromGraph(sample(3, 5)), sample(11, 8)
	call("plain", "POST", "/v1/match", MatchRequest{Pattern: small, Query: QuerySpec{Mode: ModePlain}})
	call("plus", "POST", "/v1/match", MatchRequest{Pattern: small, Query: QuerySpec{Mode: ModePlus}})
	call("plus-top-k", "POST", "/v1/match", MatchRequest{Pattern: small, Query: QuerySpec{Mode: ModePlus, TopK: 2}})
	call("plain-limit", "POST", "/v1/match", MatchRequest{Pattern: small, Query: QuerySpec{Mode: ModePlain, Limit: 2}})
	call("stream", "POST", "/v1/match/stream", MatchRequest{Pattern: small, Query: QuerySpec{Mode: ModePlus}})
	if body := call("eleven-nodes", "POST", "/v1/match", MatchRequest{
		PatternText: graph.FormatString(wide), Query: QuerySpec{Mode: ModePlus},
	}); !bytes.Contains(body, []byte(`"10":`)) {
		t.Fatal("the 11-node pattern answered no match")
	}

	var qj QueryJSON
	if err := json.Unmarshal(call("register", "POST", "/v1/queries", RegisterRequest{Pattern: small}), &qj); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(call("standing", "GET", fmt.Sprintf("/v1/queries/%d", qj.ID), nil), &qj); err != nil {
		t.Fatal(err)
	}
	if len(qj.Matches) == 0 || len(qj.Matches[0].Edges) == 0 {
		t.Fatalf("standing query has no match edge to delete: %+v", qj)
	}
	e := qj.Matches[0].Edges[0]
	call("update", "POST", "/v1/update", UpdateRequest{Updates: []MutationJSON{DeleteEdge(e[0], e[1])}})
	call("standing-after", "GET", fmt.Sprintf("/v1/queries/%d", qj.ID), nil)
	call("delta", "GET", fmt.Sprintf("/v1/queries/%d/delta", qj.ID), nil)

	path := filepath.Join("testdata", "wire_golden.txt")
	if *updateWireGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("wire bytes moved; got\n%s\nwant\n%s", out.Bytes(), want)
	}
}
