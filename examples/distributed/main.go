// Distributed demonstrates Section 4.3: strong-simulation matching over a
// partitioned graph, with the serving tier's partition plan
// (shard.BuildPlan). For an edge-cut (BFS) and a round-robin (hash) plan it
// reports what each shard owns and replicates and how many edges cross
// shards, then evaluates the pattern the way a shard fleet would — every
// shard only the centers it owns, on its own member subgraph — and checks
// that the union equals the centralized result, centers included. It exits
// non-zero when they differ.
//
// Run with: go run ./examples/distributed [-n 5000] [-k 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/shard"
)

func main() {
	n := flag.Int("n", 5000, "data graph size")
	k := flag.Int("k", 4, "number of shards")
	seed := flag.Int64("seed", 3, "generator seed")
	flag.Parse()

	g := generator.Synthetic(*n, 1.2, 50, *seed)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 5, Alpha: 1.2, Seed: *seed + 1})
	dq, _ := graph.Diameter(q)
	fmt.Printf("data    %v\npattern %v (dQ %d)\nshards  %d\n\n", g, q, dq, *k)

	central, err := core.MatchWith(q, g, core.Options{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("centralized: %d perfect subgraphs\n\n", central.Len())

	agreeAll := true
	for _, strategy := range []string{shard.StrategyBFS, shard.StrategyHash} {
		plan, err := shard.BuildPlan(g, *k, dq, strategy)
		if err != nil {
			log.Fatal(err)
		}
		cross := 0
		g.Edges(func(u, v int32) {
			if plan.Owner[u] != plan.Owner[v] {
				cross++
			}
		})
		fmt.Printf("%-4s cross-edges=%d\n", strategy, cross)

		perCenter := make([]*core.PerfectSubgraph, g.NumNodes())
		for s, member := range plan.Members(g) {
			// A replicated record is a member the shard does not own: its
			// label and adjacency, 12 + 4·degree bytes on the wire.
			var centers []int32
			replicated, bytes := 0, 0
			for v := int32(0); v < int32(g.NumNodes()); v++ {
				switch {
				case int(plan.Owner[v]) == s:
					centers = append(centers, v)
				case member[v]:
					replicated++
					bytes += 12 + 4*(len(g.Out(v))+len(g.In(v)))
				}
			}
			eng := engine.New(shardGraph(g, member), engine.Config{Workers: 1})
			err := eng.EvalCenters(context.Background(), q, dq, centers, nil,
				func(i int, ps *core.PerfectSubgraph) { perCenter[centers[i]] = ps })
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("     shard %d: owned=%d replicated=%d (%d B)\n", s, len(centers), replicated, bytes)
		}

		var stats core.Stats
		subs := core.DedupSubgraphs(perCenter, &stats)
		core.SortSubgraphs(subs)
		agree := sameSubgraphs(subs, central.Subgraphs)
		agreeAll = agreeAll && agree
		fmt.Printf("     matches=%d agree=%v\n\n", len(subs), agree)
	}
	fmt.Println("data locality (Section 4.3): a shard needs only the balls of the centers it owns;")
	fmt.Println("plain graph simulation would need the whole graph at one site (Example 7).")
	if !agreeAll {
		fmt.Println("partitioned result differs from the centralized one")
		os.Exit(1)
	}
}

// filler is the label of the nodes a shard does not hold. It contains
// whitespace, so no pattern in the text format can name it: a filler node is
// never a candidate and never matches.
const filler = "\x00shard filler"

// shardGraph is the graph a shard of the plan would hold: every node of g
// under its global id, members with their true labels and the rest under
// filler, and the edges of g between members.
func shardGraph(g *graph.Graph, member []bool) *graph.Graph {
	b := graph.NewBuilder(g.Labels().Clone())
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if member[v] {
			b.AddNode(g.LabelName(v))
		} else {
			b.AddNode(filler)
		}
	}
	g.Edges(func(u, v int32) {
		if member[u] && member[v] {
			_ = b.AddEdge(u, v)
		}
	})
	return b.Build()
}

// sameSubgraphs compares two canonically ordered results, centers included.
func sameSubgraphs(a, b []*core.PerfectSubgraph) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Center != b[i].Center || a[i].Signature() != b[i].Signature() {
			return false
		}
	}
	return true
}
