package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/generator"
	"repro/internal/graph"
)

// matchStats posts one /v1/match with stage tracing on and returns the
// decoded response.
func matchStats(t *testing.T, url, pattern string, noPlan bool) *MatchResponse {
	t.Helper()
	resp, body := post(t, url+"/v1/match", MatchRequest{
		PatternText: pattern,
		Query:       QuerySpec{Stats: true, NoPlan: noPlan},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("match status %d: %s", resp.StatusCode, body)
	}
	var mr MatchResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.QueryStats == nil {
		t.Fatal("stats requested but query_stats missing")
	}
	return &mr
}

// TestPlanQueryStatsAndNoPlan drives the immutable server's default-on
// planner: the first query misses, the repeat hits, and no_plan pins the
// uncached engine (no plan_cache field) while serving identical matches.
func TestPlanQueryStatsAndNoPlan(t *testing.T) {
	g := generator.Synthetic(400, 1.2, 10, 91)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 92})
	ts, _ := newTestServer(t, g, Config{})
	pattern := graph.FormatString(q)

	control := matchStats(t, ts.URL, pattern, true)
	if control.QueryStats.PlanCache != "" {
		t.Fatalf("no_plan query reported planner stats: %+v", control.QueryStats)
	}

	first := matchStats(t, ts.URL, pattern, false)
	if first.QueryStats.PlanCache != "miss" {
		t.Fatalf("first planned query plan_cache = %q", first.QueryStats.PlanCache)
	}
	if first.QueryStats.CandidateCenters != control.QueryStats.CandidateCenters {
		t.Fatalf("the cache changed the filter: %d centers planned, %d not",
			first.QueryStats.CandidateCenters, control.QueryStats.CandidateCenters)
	}

	second := matchStats(t, ts.URL, pattern, false)
	if second.QueryStats.PlanCache != "hit" {
		t.Fatalf("repeat plan_cache = %q", second.QueryStats.PlanCache)
	}

	for name, mr := range map[string]*MatchResponse{"miss": first, "hit": second} {
		a, _ := json.Marshal(control.Matches)
		b, _ := json.Marshal(mr.Matches)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s-path matches differ from no_plan control", name)
		}
	}

	// The cache counters surface on /v1/metrics; the query path's pruning
	// counters are gone with its prune stage.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"plan_cache_hits_total", "plan_cache_entries"} {
		if !strings.Contains(buf.String(), metric) {
			t.Errorf("/v1/metrics missing %s", metric)
		}
	}
	for _, metric := range []string{"plan_candidates_", "plan_pruned_"} {
		if strings.Contains(buf.String(), metric) {
			t.Errorf("/v1/metrics still exposes %s*", metric)
		}
	}
}

// TestPlanCacheInvalidationAcrossUpdate is the staleness bar for the live
// deployment: a cached answer must never survive an update. Warm the cache,
// delete an edge inside the cached match's neighborhood, and require the
// planned answer to equal the unplanned one (and to have shrunk) — served as
// a miss, since an entry lives for one version, then as a hit.
func TestPlanCacheInvalidationAcrossUpdate(t *testing.T) {
	ts, _ := newLiveTestServer(t)
	pattern := "node a A\nnode b B\nedge a b"

	warm := matchStats(t, ts.URL, pattern, false)
	if warm.QueryStats.PlanCache != "miss" {
		t.Fatalf("warm query plan_cache = %q", warm.QueryStats.PlanCache)
	}
	if got := matchStats(t, ts.URL, pattern, false); got.QueryStats.PlanCache != "hit" {
		t.Fatalf("pre-update repeat plan_cache = %q", got.QueryStats.PlanCache)
	}
	if len(warm.Matches) != 2 {
		t.Fatalf("chain store should match twice, got %d", len(warm.Matches))
	}

	var ur UpdateResponse
	if r := doJSON(t, "POST", ts.URL+"/v1/update", UpdateRequest{
		Updates: []MutationJSON{DeleteEdge(0, 1)},
	}, &ur); r.StatusCode != 200 {
		t.Fatalf("update status %d", r.StatusCode)
	}

	control := matchStats(t, ts.URL, pattern, true)
	planned := matchStats(t, ts.URL, pattern, false)
	if planned.QueryStats.PlanCache != "miss" {
		t.Fatalf("post-update plan_cache = %q, want miss", planned.QueryStats.PlanCache)
	}
	a, _ := json.Marshal(control.Matches)
	b, _ := json.Marshal(planned.Matches)
	if !bytes.Equal(a, b) {
		t.Fatalf("post-update planned matches differ from no_plan:\n%s\n%s", b, a)
	}
	if len(planned.Matches) != 1 {
		t.Fatalf("stale answer served: %d matches after the edge delete", len(planned.Matches))
	}

	// The entry the miss stored serves the next repeat as a hit.
	again := matchStats(t, ts.URL, pattern, false)
	if again.QueryStats.PlanCache != "hit" {
		t.Fatalf("post-update repeat plan_cache = %q", again.QueryStats.PlanCache)
	}
	c, _ := json.Marshal(again.Matches)
	if !bytes.Equal(a, c) {
		t.Fatal("post-update hit differs from no_plan control")
	}

	// Insert the edge back: the hit must go stale again and the answer grow.
	if r := doJSON(t, "POST", ts.URL+"/v1/update", UpdateRequest{
		Updates: []MutationJSON{InsertEdge(0, 1)},
	}, &ur); r.StatusCode != 200 {
		t.Fatalf("re-insert status %d", r.StatusCode)
	}
	restored := matchStats(t, ts.URL, pattern, false)
	if restored.QueryStats.PlanCache != "miss" {
		t.Fatalf("post-re-insert plan_cache = %q, want miss", restored.QueryStats.PlanCache)
	}
	if len(restored.Matches) != 2 {
		t.Fatalf("%d matches after re-insert, want 2", len(restored.Matches))
	}
	control2 := matchStats(t, ts.URL, pattern, true)
	d, _ := json.Marshal(control2.Matches)
	e, _ := json.Marshal(restored.Matches)
	if !bytes.Equal(d, e) {
		t.Fatal("post-re-insert planned matches differ from no_plan")
	}
}
