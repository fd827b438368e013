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
// planner: the first query misses and reports its pruning counters, the
// repeat hits, and no_plan pins the unplanned engine (no plan fields at
// all) while serving identical matches.
func TestPlanQueryStatsAndNoPlan(t *testing.T) {
	g := generator.Synthetic(400, 1.2, 10, 91)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 92})
	ts, _ := newTestServer(t, g, Config{})
	pattern := graph.FormatString(q)

	control := matchStats(t, ts.URL, pattern, true)
	if control.QueryStats.PlanCache != "" || control.QueryStats.PlanCandidatesBefore != 0 {
		t.Fatalf("no_plan query reported planner stats: %+v", control.QueryStats)
	}

	first := matchStats(t, ts.URL, pattern, false)
	if first.QueryStats.PlanCache != "miss" {
		t.Fatalf("first planned query plan_cache = %q", first.QueryStats.PlanCache)
	}
	if first.QueryStats.PlanCandidatesBefore <= 0 {
		t.Fatalf("planned query did not report candidates: %+v", first.QueryStats)
	}
	if qs := first.QueryStats; qs.PlanPrunedAnchor <= 0 ||
		qs.CandidateCenters != qs.PlanCandidatesBefore-qs.PlanPrunedDegree-qs.PlanPrunedAnchor {
		t.Fatalf("the two pruned-by counts do not explain the centers left: %+v", qs)
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

	// The planner counters surface on /v1/metrics.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"plan_cache_hits_total", "plan_candidates_before_total", "plan_pruned_anchor_total", "plan_cache_entries"} {
		if !strings.Contains(buf.String(), metric) {
			t.Errorf("/v1/metrics missing %s", metric)
		}
	}
}

// TestPlanCacheInvalidationAcrossUpdate is the staleness bar for the live
// deployment: a cached answer must never survive an update that touches
// it. Warm the cache, delete an edge inside the cached match's
// neighborhood, and require the planned answer to equal the unplanned one
// (and to have shrunk) — served as a refresh, not a stale hit.
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
	if planned.QueryStats.PlanCache != "refresh" {
		t.Fatalf("post-update plan_cache = %q, want refresh", planned.QueryStats.PlanCache)
	}
	a, _ := json.Marshal(control.Matches)
	b, _ := json.Marshal(planned.Matches)
	if !bytes.Equal(a, b) {
		t.Fatalf("post-update planned matches differ from no_plan:\n%s\n%s", b, a)
	}
	if len(planned.Matches) != 1 {
		t.Fatalf("stale answer served: %d matches after the edge delete", len(planned.Matches))
	}

	// The repaired entry serves the next repeat as a clean hit.
	again := matchStats(t, ts.URL, pattern, false)
	if again.QueryStats.PlanCache != "hit" {
		t.Fatalf("post-repair plan_cache = %q", again.QueryStats.PlanCache)
	}
	c, _ := json.Marshal(again.Matches)
	if !bytes.Equal(a, c) {
		t.Fatal("post-repair hit differs from no_plan control")
	}

	// Insert the edge back: the hit must go stale again and the answer grow.
	if r := doJSON(t, "POST", ts.URL+"/v1/update", UpdateRequest{
		Updates: []MutationJSON{InsertEdge(0, 1)},
	}, &ur); r.StatusCode != 200 {
		t.Fatalf("re-insert status %d", r.StatusCode)
	}
	restored := matchStats(t, ts.URL, pattern, false)
	if restored.QueryStats.PlanCache == "hit" {
		t.Fatal("stale hit served across the re-insert")
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
