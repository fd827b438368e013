package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/paperdata"
)

// checkMergeEqualsCentralized is the Sec. 4.3 equality on the served tier:
// each of k shards, a full replica, evaluates q in the given mode over its
// center slice, the router's merge rule combines the answers, and the merged
// matches and statistics must be byte-identical to core.MatchWith on the
// whole graph (the global filter on, as every served query takes it),
// centers included. Under a limit of 1–3, which each shard applies to its
// slice and the merge applies again, the merged matches must be
// core.MatchWith's first ones by center; the statistics then count each
// side's own work and are not compared.
func checkMergeEqualsCentralized(q, g *graph.Graph, k int, opts engine.QueryOptions) error {
	central, err := core.MatchWith(q, g, core.Options{Workers: 1, DualFilter: true,
		MinimizeQuery: opts.MinimizeQuery, ConnectivityPruning: opts.ConnectivityPruning})
	if err != nil {
		return err
	}
	byCenter := append([]*core.PerfectSubgraph(nil), central.Subgraphs...)
	sort.Slice(byCenter, func(i, j int) bool { return byCenter[i].Center < byCenter[j].Center })
	eng := engine.New(g, engine.Config{Workers: 1})
	for limit := 0; limit <= 3; limit++ {
		resps := make([]*api.MatchResponse, k)
		for s := range resps {
			sliced := opts
			sliced.Slice = engine.CenterSlice{Index: s, Of: k}
			sliced.Limit = limit
			res, err := eng.Match(context.Background(), q, sliced)
			if err != nil {
				return err
			}
			resps[s] = &api.MatchResponse{Matches: api.FromSubgraphs(res.Subgraphs), Stats: api.FromStats(res.Stats)}
		}
		merged, stats := mergeOwned(resps, k, limit)
		core.SortSubgraphs(merged)
		got := api.MatchResponse{Matches: api.FromSubgraphs(merged), Stats: api.FromStats(stats)}
		want := api.MatchResponse{Matches: api.FromSubgraphs(central.Subgraphs), Stats: api.FromStats(central.Stats)}
		if limit > 0 {
			first := append([]*core.PerfectSubgraph(nil), byCenter[:min(limit, len(byCenter))]...)
			core.SortSubgraphs(first)
			got.Stats, want = api.StatsJSON{}, api.MatchResponse{Matches: api.FromSubgraphs(first)}
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			return fmt.Errorf("limit %d: merged shards diverge from the centralized result\nmerged:      %s\ncentralized: %s", limit, gj, wj)
		}
	}
	return nil
}

// mergeModes are the query modes every merge check runs in: plain and plus.
var mergeModes = []engine.QueryOptions{{}, engine.PlusQuery()}

// TestMergeMatchesFig1 checks the merge on Fig. 1 at k ∈ {1, 2, 3, 5} in
// both modes.
func TestMergeMatchesFig1(t *testing.T) {
	q1, g1 := paperdata.Fig1()
	for _, k := range []int{1, 2, 3, 5} {
		for _, opts := range mergeModes {
			if err := checkMergeEqualsCentralized(q1, g1, k, opts); err != nil {
				t.Fatalf("Fig. 1, k=%d plus=%v: %v", k, opts.MinimizeQuery, err)
			}
		}
	}
}

// TestQuickMergeEqualsCentralized checks the merge in both modes on small
// random graphs with few labels, where one subgraph often has producing
// centers in several slices.
func TestQuickMergeEqualsCentralized(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		labels := graph.NewLabels()
		nl := 1 + rng.Intn(3)
		gb := graph.NewBuilder(labels)
		n := 6 + rng.Intn(30)
		for i := 0; i < n; i++ {
			gb.AddNode(string(rune('A' + rng.Intn(nl))))
		}
		for i := 0; i < n*3/2; i++ {
			_ = gb.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := gb.Build()
		qb := graph.NewBuilder(labels)
		nq := 2 + rng.Intn(3)
		for i := 0; i < nq; i++ {
			qb.AddNode(string(rune('A' + rng.Intn(nl))))
		}
		for i := 1; i < nq; i++ {
			p := int32(rng.Intn(i))
			if rng.Intn(2) == 0 {
				_ = qb.AddEdge(p, int32(i))
			} else {
				_ = qb.AddEdge(int32(i), p)
			}
		}
		q := qb.Build()
		k := 2 + rng.Intn(3)
		for _, opts := range mergeModes {
			if err := checkMergeEqualsCentralized(q, g, k, opts); err != nil {
				t.Logf("seed %d, k=%d plus=%v: %v", seed, k, opts.MinimizeQuery, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
