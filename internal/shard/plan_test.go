package shard

import (
	"bytes"
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
						if err := plan.Validate(g.NumNodes()); err != nil {
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

// TestMembersInducedBallsIdentical checks the stronger statement the merge
// rule needs: for every node within Halo of a node the shard owns — every
// center that can produce an owned center's subgraph — and every radius
// r ≤ Halo, the ball computed inside the shard's graph equals the global
// ball, node for node and edge for edge.
func TestMembersInducedBallsIdentical(t *testing.T) {
	g := generator.Synthetic(120, 1.2, 5, 7)
	const halo = 2
	for _, strategy := range []string{StrategyBFS, StrategyHash} {
		plan, err := BuildPlan(g, 3, halo, strategy)
		if err != nil {
			t.Fatal(err)
		}
		for s, member := range plan.Members(g) {
			sub := shardGraph(g, member)
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

// ballString renders a ball's nodes and edges in parent-graph ids.
func ballString(b *graph.Ball) string {
	var sb strings.Builder
	fmt.Fprint(&sb, b.Orig)
	b.G.Edges(func(u, v int32) { fmt.Fprintf(&sb, " %d>%d", b.Orig[u], b.Orig[v]) })
	return sb.String()
}

// TestPlanStrategies checks both partitioners: every plan is valid, and on
// a graph with locality the BFS cut crosses no more edges than hashing.
func TestPlanStrategies(t *testing.T) {
	g := generator.Synthetic(200, 1.2, 10, 1)
	for _, k := range []int{1, 2, 3, 7} {
		cross := make(map[string]int)
		for _, strategy := range []string{StrategyBFS, StrategyHash} {
			plan, err := BuildPlan(g, k, 1, strategy)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Validate(g.NumNodes()); err != nil {
				t.Fatalf("k=%d %s: %v", k, strategy, err)
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

func TestPlanExtendToRoundRobin(t *testing.T) {
	g := generator.Synthetic(10, 1.2, 3, 1)
	plan, err := BuildPlan(g, 3, 1, StrategyHash)
	if err != nil {
		t.Fatal(err)
	}
	plan.ExtendTo(17)
	if len(plan.Owner) != 17 {
		t.Fatalf("owner array %d long", len(plan.Owner))
	}
	for v := 10; v < 17; v++ {
		if plan.Owner[v] != int32(v%3) {
			t.Fatalf("node %d assigned to %d, want %d", v, plan.Owner[v], v%3)
		}
	}
	plan.ExtendTo(5) // never shrinks
	if len(plan.Owner) != 17 {
		t.Fatal("ExtendTo shrank the plan")
	}
}

func TestPlanRoundTrip(t *testing.T) {
	g := generator.Synthetic(50, 1.2, 4, 3)
	plan, err := BuildPlan(g, 4, 2, StrategyBFS)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != plan.K || got.Halo != plan.Halo || got.Strategy != plan.Strategy {
		t.Fatalf("round trip changed header: %+v vs %+v", got, plan)
	}
	if len(got.Owner) != len(plan.Owner) {
		t.Fatalf("round trip changed owner length")
	}
	for v := range plan.Owner {
		if got.Owner[v] != plan.Owner[v] {
			t.Fatalf("owner[%d] = %d after round trip, want %d", v, got.Owner[v], plan.Owner[v])
		}
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
	plan, _ := BuildPlan(g, 2, 1, StrategyBFS)
	if err := plan.Validate(50); err == nil {
		t.Fatal("plan covering fewer nodes than the graph must be rejected")
	}
	if err := (&Plan{K: 2, Halo: 1, Owner: []int32{0, 5}}).Validate(2); err == nil {
		t.Fatal("out-of-range owner must be rejected")
	}
}

// TestPlanValidate checks the plan's own invariants, independent of how it
// was built: k ≥ 1, one owner per node, every owner a shard of the plan.
func TestPlanValidate(t *testing.T) {
	if err := (&Plan{K: 2, Halo: 1, Owner: []int32{0, 1}}).Validate(2); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := (&Plan{K: 0, Halo: 1}).Validate(0); err == nil {
		t.Fatal("k=0 plan must be rejected")
	}
	if err := (&Plan{K: 2, Halo: 1, Owner: []int32{0, 5}}).Validate(2); err == nil {
		t.Fatal("out-of-range owner must be rejected")
	}
	if err := (&Plan{K: 2, Halo: 1, Owner: []int32{0, -1}}).Validate(2); err == nil {
		t.Fatal("negative owner must be rejected")
	}
	if err := (&Plan{K: 2, Halo: 1, Owner: []int32{0}}).Validate(2); err == nil {
		t.Fatal("owner array shorter than the graph must be rejected")
	}
}
