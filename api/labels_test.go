package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"testing"

	"repro/internal/generator"
	"repro/internal/graph"
)

// TestPatternsLeaveSnapshotLabels: concurrent matches, as text and as
// structured patterns, that name only labels the graph knows and that name
// labels it has never seen, all answer, and the snapshot's label table is
// left as it was. A pattern of known labels is built against the shared
// table itself, one with an unknown label against a private copy. Under
// -race a write to the shared table is a reported race.
func TestPatternsLeaveSnapshotLabels(t *testing.T) {
	g := generator.Synthetic(400, 1.2, 10, 73)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 74})
	ts, e := newTestServer(t, g, Config{})
	labels := e.Snapshot().Graph().Labels()
	names := func() []string {
		out := make([]string, labels.Len())
		for i := range out {
			out[i] = labels.Name(int32(i))
		}
		return out
	}
	before := names()

	if p, err := e.Snapshot().ParsePattern(graph.FormatString(q)); err != nil || p.Labels() != labels {
		t.Fatalf("a pattern of known labels does not share the snapshot's table (err %v)", err)
	}
	fresh := fmt.Sprintf("node a never-seen\nnode b %s\nedge a b\n", q.LabelName(0))
	if p, err := e.Snapshot().ParsePattern(fresh); err != nil || p.Labels() == labels {
		t.Fatalf("a pattern of an unknown label shares the snapshot's table (err %v)", err)
	}

	request := func(i int) MatchRequest {
		text := graph.FormatString(q)
		if i%2 == 1 {
			text = fmt.Sprintf("node a unknown-%d\nnode b %s\nedge a b\n", i, q.LabelName(0))
		}
		if i%4 < 2 {
			return MatchRequest{PatternText: text}
		}
		p, err := graph.ParseString(text, nil)
		if err != nil {
			t.Error(err)
		}
		return MatchRequest{Pattern: FromGraph(p)}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				body, _ := json.Marshal(request(w*8 + j))
				resp, err := http.Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				out, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("request %d: status %d: %s", w*8+j, resp.StatusCode, out)
				}
			}
		}(w)
	}
	wg.Wait()
	if after := names(); !slices.Equal(before, after) {
		t.Fatalf("matching changed the snapshot's label table: %d labels before, %d after", len(before), len(after))
	}
}
