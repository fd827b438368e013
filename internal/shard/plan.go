// Package shard is the scatter/gather serving tier over the /v1 protocol:
// partition planning with dQ-hop halo replication (plan.go), shard subgraph
// construction and incremental halo maintenance as ordinary /v1/update
// batches (push.go), and the router itself (router.go) — the api.Backend
// that fans matches out to a fleet of plain strongsimd shards and merges
// the per-center results byte-identically to a single-node server, served
// through package api's one /v1 route tree.
//
// The tier rests on the paper's data-locality result (Section 4.3): strong
// simulation evaluates one ball Ĝ[v, dQ] per candidate center v, and a ball
// of radius r lives wholly inside a fragment that replicates every node
// within r undirected hops of the nodes it owns. Each shard therefore
// serves a halo-extended subgraph in the full global id space — member
// nodes carry their true labels, non-members a reserved filler label no
// pattern can name — and evaluates balls with zero network traffic. The
// router keeps, from shard i, exactly the results whose center is owned by
// i, so every center is reported once, by the one shard whose ball for it
// is provably identical to the global ball.
package shard

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/distributed"
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

// Plan is a ball-locality partition plan: every node has exactly one owning
// shard, and each shard additionally replicates every node within Halo
// undirected hops of a node it owns. Queries whose effective ball radius is
// at most Halo evaluate every owned center entirely shard-locally.
//
// The plan stores only the ownership array; member sets depend on the
// current graph adjacency and are recomputed via Members as the graph
// changes. Nodes created after planning are assigned round-robin by
// ExtendTo, so every party that replays the same update stream derives the
// same ownership.
type Plan struct {
	K        int     `json:"k"`
	Halo     int     `json:"halo"`
	Strategy string  `json:"strategy"`
	Owner    []int32 `json:"owner"`
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
	var part distributed.Partition
	switch strategy {
	case "", StrategyBFS:
		strategy = StrategyBFS
		part = distributed.PartitionBFS(g, k)
	case StrategyHash:
		part = distributed.PartitionHash(g, k)
	default:
		return nil, fmt.Errorf("shard: unknown partition strategy %q (want %q or %q)",
			strategy, StrategyBFS, StrategyHash)
	}
	return &Plan{K: k, Halo: halo, Strategy: strategy, Owner: part.Owner}, nil
}

// Validate checks the plan against a node count.
func (p *Plan) Validate(numNodes int) error {
	if p.Halo < 1 {
		return fmt.Errorf("shard: plan needs halo ≥ 1, got %d", p.Halo)
	}
	if len(p.Owner) < numNodes {
		return fmt.Errorf("shard: plan covers %d nodes, graph has %d", len(p.Owner), numNodes)
	}
	return distributed.Partition{K: p.K, Owner: p.Owner}.Validate(len(p.Owner))
}

// ExtendTo assigns owners to nodes [len(Owner), n) round-robin by id, the
// deterministic rule for nodes created by update batches after planning.
func (p *Plan) ExtendTo(n int) {
	for v := len(p.Owner); v < n; v++ {
		p.Owner = append(p.Owner, int32(v%p.K))
	}
}

// Members computes, per shard, the membership bitmap over g: a node is a
// member of shard s when it lies within Halo undirected hops of a node s
// owns (owned nodes themselves at distance 0). The halo-replication
// invariant follows directly: every path of length ≤ Halo from an owned
// node stays inside the member set, so for any owned center c and radius
// r ≤ Halo, the ball Ĝ[c, r] is identical in g and in the subgraph induced
// by the members.
func (p *Plan) Members(g *graph.Graph) [][]bool {
	n := g.NumNodes()
	members := make([][]bool, p.K)
	for s := 0; s < p.K; s++ {
		members[s] = make([]bool, n)
	}
	dist := make([]int32, n)
	var frontier, next []int32
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
		// Multi-source undirected BFS from every owned node, depth ≤ Halo.
		for depth := 0; depth < p.Halo && len(frontier) > 0; depth++ {
			next = next[:0]
			for _, v := range frontier {
				visit := func(w int32) {
					if !member[w] {
						member[w] = true
						next = append(next, w)
					}
				}
				for _, w := range g.Out(v) {
					visit(w)
				}
				for _, w := range g.In(v) {
					visit(w)
				}
			}
			frontier, next = next, frontier
		}
	}
	return members
}

// OwnedCount returns how many of the first n nodes each shard owns.
func (p *Plan) OwnedCount(n int) []int {
	counts := make([]int, p.K)
	for v := 0; v < n && v < len(p.Owner); v++ {
		counts[p.Owner[v]]++
	}
	return counts
}

// WritePlan serializes a plan as JSON.
func WritePlan(w io.Writer, p *Plan) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// ReadPlan deserializes and validates a plan written by WritePlan.
func ReadPlan(r io.Reader) (*Plan, error) {
	var p Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("shard: decoding plan: %w", err)
	}
	if err := p.Validate(len(p.Owner)); err != nil {
		return nil, err
	}
	return &p, nil
}
