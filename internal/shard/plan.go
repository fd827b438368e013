package shard

import (
	"fmt"

	"repro/internal/graph"
)

// Partitioning strategies for BuildPlan.
const (
	// StrategyBFS cuts an undirected BFS order into contiguous chunks —
	// locality-friendly, the default.
	StrategyBFS = "bfs"
	// StrategyHash spreads nodes round-robin — the worst case for halo
	// size, useful as a stress contrast.
	StrategyHash = "hash"
)

// Plan is a ball-locality partition plan in the sense of the paper's
// Section 4.3: every node has exactly one owning shard, and each shard
// additionally replicates every node within 2·Halo undirected hops of a node
// it owns (see Members), so queries whose effective ball radius is at most
// Halo could evaluate every owned center on the shard alone.
//
// The served tier does not partition data: its replicas hold the whole
// graph and split the centers (Router). A Plan is what examples/distributed
// checks the locality result with, and what the benchmark harness measures
// replication by.
type Plan struct {
	K        int
	Halo     int
	Strategy string
	Owner    []int32
}

// BuildPlan partitions g into k shards under the named strategy ("" means
// StrategyBFS) with the given halo depth.
func BuildPlan(g *graph.Graph, k, halo int, strategy string) (*Plan, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: plan needs k ≥ 1, got %d", k)
	}
	if halo < 1 {
		return nil, fmt.Errorf("shard: plan needs halo ≥ 1, got %d", halo)
	}
	var owner []int32
	switch strategy {
	case "", StrategyBFS:
		strategy = StrategyBFS
		owner = partitionBFS(g, k)
	case StrategyHash:
		owner = partitionHash(g, k)
	default:
		return nil, fmt.Errorf("shard: unknown partition strategy %q (want %q or %q)",
			strategy, StrategyBFS, StrategyHash)
	}
	return &Plan{K: k, Halo: halo, Strategy: strategy, Owner: owner}, nil
}

// partitionHash spreads nodes round-robin by id: almost every edge crosses
// shards.
func partitionHash(g *graph.Graph, k int) []int32 {
	owner := make([]int32, g.NumNodes())
	for v := range owner {
		owner[v] = int32(v % k)
	}
	return owner
}

// partitionBFS cuts an undirected BFS order of g (components in ascending
// id order of their first node) into k contiguous chunks, the last one
// taking any remainder — an edge-cut partitioning, so few edges cross
// shards.
func partitionBFS(g *graph.Graph, k int) []int32 {
	n := g.NumNodes()
	owner := make([]int32, n)
	order := make([]int32, 0, n)
	seen := make([]bool, n)
	var row []int32
	for v := 0; v < n; v++ {
		if seen[v] {
			continue
		}
		seen[v] = true
		order = append(order, int32(v))
		// order doubles as the BFS queue: the component's nodes are
		// appended as they are discovered and read from head on.
		for head := len(order) - 1; head < len(order); head++ {
			x := order[head]
			row = g.AppendIn(g.AppendOut(row[:0], x), x)
			for _, w := range row {
				if !seen[w] {
					seen[w] = true
					order = append(order, w)
				}
			}
		}
	}
	chunk := max((n+k-1)/k, 1)
	for i, v := range order {
		owner[v] = int32(min(i/chunk, k-1))
	}
	return owner
}

// Members computes, per shard, the membership bitmap over g: a node is a
// member of shard s when it lies within 2·Halo undirected hops of a node s
// owns (owned nodes themselves at distance 0). Every path of length ≤ 2·Halo
// from an owned node stays inside the member set, so for any node c within
// Halo of an owned node and any radius r ≤ Halo, the ball Ĝ[c, r] is
// identical in g and in the subgraph induced by the members.
func (p *Plan) Members(g *graph.Graph) [][]bool {
	n := g.NumNodes()
	members := make([][]bool, p.K)
	for s := 0; s < p.K; s++ {
		members[s] = make([]bool, n)
	}
	dist := make([]int32, n)
	var frontier, next, row []int32
	for s := 0; s < p.K; s++ {
		member := members[s]
		frontier = frontier[:0]
		for v := 0; v < n; v++ {
			if int(p.Owner[v]) == s {
				member[v] = true
				dist[v] = 0
				frontier = append(frontier, int32(v))
			}
		}
		// Multi-source undirected BFS from every owned node, depth ≤ 2·Halo.
		for depth := 0; depth < 2*p.Halo && len(frontier) > 0; depth++ {
			next = next[:0]
			for _, v := range frontier {
				row = g.AppendIn(g.AppendOut(row[:0], v), v)
				for _, w := range row {
					if !member[w] {
						member[w] = true
						next = append(next, w)
					}
				}
			}
			frontier, next = next, frontier
		}
	}
	return members
}
