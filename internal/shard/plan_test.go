package shard

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/generator"
	"repro/internal/graph"
)

// TestHaloContainment is the ball-locality invariant the whole tier rests
// on: for every node v, every partition strategy, every shard count and
// every radius r ≤ halo, the ball Ĝ[v, r] of the global graph lies entirely
// inside the member set of the shard owning v. Randomized over synthetic
// graphs of several densities.
func TestHaloContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 7, 60, 200} {
		for _, alpha := range []float64{1.05, 1.2} {
			g := generator.Synthetic(n, alpha, 6, rng.Int63())
			for _, strategy := range []string{StrategyBFS, StrategyHash} {
				for _, k := range []int{1, 2, 3, 5} {
					for _, halo := range []int{1, 2, 3} {
						plan, err := BuildPlan(g, k, halo, strategy)
						if err != nil {
							t.Fatal(err)
						}
						members := plan.Members(g)
						for v := int32(0); v < int32(g.NumNodes()); v++ {
							member := members[plan.Owner[v]]
							ball := graph.NewBall(g, v, halo)
							for _, u := range ball.Orig {
								if !member[u] {
									t.Fatalf("n=%d %s k=%d halo=%d: node %d of ball(%d,%d) not replicated on owning shard %d",
										n, strategy, k, halo, u, v, halo, plan.Owner[v])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestMembersInducedBallsIdentical checks the stronger statement of
// Plan.Members: for every node within Halo of a node the shard owns and
// every radius r ≤ Halo, the ball computed inside the graph the shard's
// members induce equals the global ball, node for node and edge for edge.
func TestMembersInducedBallsIdentical(t *testing.T) {
	g := generator.Synthetic(120, 1.2, 5, 7)
	const halo = 2
	for _, strategy := range []string{StrategyBFS, StrategyHash} {
		plan, err := BuildPlan(g, 3, halo, strategy)
		if err != nil {
			t.Fatal(err)
		}
		for s, member := range plan.Members(g) {
			sub := memberGraph(g, member)
			near := make(map[int32]bool)
			for v := int32(0); v < int32(g.NumNodes()); v++ {
				if plan.Owner[v] == int32(s) {
					for _, u := range graph.NewBall(g, v, halo).Orig {
						near[u] = true
					}
				}
			}
			for c := range near {
				for r := 1; r <= halo; r++ {
					global, local := ballString(graph.NewBall(g, c, r)), ballString(graph.NewBall(sub, c, r))
					if global != local {
						t.Fatalf("%s shard %d center %d r=%d: shard ball differs from the global ball\nshard:  %s\nglobal: %s",
							strategy, s, c, r, local, global)
					}
				}
			}
		}
	}
}

// memberGraph is the graph a shard of a plan would hold: every node of g
// under its global id, members with their true labels and the rest under a
// label no pattern can name, and the edges of g between members.
func memberGraph(g *graph.Graph, member []bool) *graph.Graph {
	b := graph.NewBuilder(g.Labels().Clone())
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if member[v] {
			b.AddNode(g.LabelName(v))
		} else {
			b.AddNode("\x00filler")
		}
	}
	g.Edges(func(u, v int32) {
		if member[u] && member[v] {
			_ = b.AddEdge(u, v)
		}
	})
	return b.Build()
}

// ballString renders a ball's nodes and edges in parent-graph ids.
func ballString(b *graph.Ball) string {
	var sb strings.Builder
	fmt.Fprint(&sb, b.Orig)
	b.G.Edges(func(u, v int32) { fmt.Fprintf(&sb, " %d>%d", b.Orig[u], b.Orig[v]) })
	return sb.String()
}

// TestPlanStrategies checks both partitioners: every node gets an owner
// among the plan's shards, and on a graph with locality the BFS cut crosses
// no more edges than hashing.
func TestPlanStrategies(t *testing.T) {
	g := generator.Synthetic(200, 1.2, 10, 1)
	for _, k := range []int{1, 2, 3, 7} {
		cross := make(map[string]int)
		for _, strategy := range []string{StrategyBFS, StrategyHash} {
			plan, err := BuildPlan(g, k, 1, strategy)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Owner) != g.NumNodes() {
				t.Fatalf("k=%d %s: %d owners for %d nodes", k, strategy, len(plan.Owner), g.NumNodes())
			}
			for v, s := range plan.Owner {
				if s < 0 || int(s) >= k {
					t.Fatalf("k=%d %s: node %d owned by shard %d", k, strategy, v, s)
				}
			}
			g.Edges(func(u, v int32) {
				if plan.Owner[u] != plan.Owner[v] {
					cross[strategy]++
				}
			})
		}
		if cross[StrategyBFS] > cross[StrategyHash] {
			t.Fatalf("k=%d: BFS cut %d edges, hash cut %d — expected BFS ≤ hash",
				k, cross[StrategyBFS], cross[StrategyHash])
		}
	}
}

// TestPlanReplication compares what the strategies replicate: members
// summed over shards, per node. On a sparse graph with a shallow halo,
// where hashing replicates less than every node on every shard, the BFS
// cut replicates no more than hashing.
func TestPlanReplication(t *testing.T) {
	g := generator.Synthetic(2000, 1.05, 10, 1)
	const k = 4
	replication := make(map[string]float64)
	for _, strategy := range []string{StrategyBFS, StrategyHash} {
		plan, err := BuildPlan(g, k, 1, strategy)
		if err != nil {
			t.Fatal(err)
		}
		members := 0
		for _, member := range plan.Members(g) {
			for _, m := range member {
				if m {
					members++
				}
			}
		}
		replication[strategy] = float64(members) / float64(g.NumNodes())
	}
	if replication[StrategyHash] >= k {
		t.Fatalf("hash replicates %.3f, every node on every shard: the comparison says nothing", replication[StrategyHash])
	}
	if replication[StrategyBFS] > replication[StrategyHash] {
		t.Fatalf("BFS replicates %.3f, hash %.3f — expected BFS ≤ hash",
			replication[StrategyBFS], replication[StrategyHash])
	}
}

func TestPlanRejectsBadInput(t *testing.T) {
	g := generator.Synthetic(10, 1.2, 3, 1)
	if _, err := BuildPlan(g, 0, 1, StrategyBFS); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := BuildPlan(g, 2, 0, StrategyBFS); err == nil {
		t.Fatal("halo=0 must be rejected")
	}
	if _, err := BuildPlan(g, 2, 1, "metis"); err == nil {
		t.Fatal("unknown strategy must be rejected")
	}
}
