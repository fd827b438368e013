package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/paperdata"
)

// shardGraph is the graph a pushed shard serves, built in process: every
// node of g under its global id, members with their true labels and the
// rest under FillerLabel, and the edges of g between members.
func shardGraph(g *graph.Graph, member []bool) *graph.Graph {
	b := graph.NewBuilder(g.Labels().Clone())
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		b.AddNode(shardLabel(g, member, v))
	}
	g.Edges(func(u, v int32) {
		if member[u] && member[v] {
			_ = b.AddEdge(u, v)
		}
	})
	return b.Build()
}

// checkMergeEqualsCentralized is the Sec. 4.3 equality on the served tier:
// every shard of plan evaluates q on its own graph in the given mode, the
// router's merge rule combines the answers, and the merged matches must be
// byte-identical to core.MatchWith on the whole graph, centers included.
func checkMergeEqualsCentralized(q, g *graph.Graph, plan *Plan, opts engine.QueryOptions) error {
	central, err := core.MatchWith(q, g, core.Options{Workers: 1})
	if err != nil {
		return err
	}
	members := plan.Members(g)
	resps := make([]*api.MatchResponse, plan.K)
	for s := range resps {
		res, err := engine.New(shardGraph(g, members[s]), engine.Config{Workers: 1}).
			Match(context.Background(), q, opts)
		if err != nil {
			return err
		}
		resps[s] = &api.MatchResponse{Matches: api.FromSubgraphs(res.Subgraphs)}
	}
	merged, _ := mergeOwned(resps, plan.Owner)
	got, _ := json.Marshal(api.FromSubgraphs(merged))
	want, _ := json.Marshal(api.FromSubgraphs(central.Subgraphs))
	if string(got) != string(want) {
		return fmt.Errorf("merged shards diverge from the centralized result\nmerged:      %s\ncentralized: %s", got, want)
	}
	return nil
}

// mergeModes are the query modes every merge check runs in: plain and plus.
var mergeModes = []engine.QueryOptions{{}, engine.PlusQuery()}

// TestMergeMatchesFig1 checks the merge on Fig. 1 at k ∈ {1, 2, 3, 5}, over
// both strategies and both modes.
func TestMergeMatchesFig1(t *testing.T) {
	q1, g1 := paperdata.Fig1()
	dq1, _ := graph.Diameter(q1)
	for _, strategy := range []string{StrategyBFS, StrategyHash} {
		for _, k := range []int{1, 2, 3, 5} {
			plan, err := BuildPlan(g1, k, dq1, strategy)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range mergeModes {
				if err := checkMergeEqualsCentralized(q1, g1, plan, opts); err != nil {
					t.Fatalf("Fig. 1, %s k=%d plus=%v: %v", strategy, k, opts.MinimizeQuery, err)
				}
			}
		}
	}
}

// TestQuickMergeEqualsCentralized checks the merge over both strategies and
// both modes on small random graphs with few labels, where a ball the shard
// holds truncated often reproduces an owned center's subgraph.
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
		dq, _ := graph.Diameter(q)
		strategy := []string{StrategyBFS, StrategyHash}[rng.Intn(2)]
		plan, err := BuildPlan(g, 2+rng.Intn(3), max(1, dq), strategy)
		if err != nil {
			t.Log(err)
			return false
		}
		for _, opts := range mergeModes {
			if err := checkMergeEqualsCentralized(q, g, plan, opts); err != nil {
				t.Logf("seed %d, %s k=%d plus=%v: %v", seed, strategy, plan.K, opts.MinimizeQuery, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
