// Package shard is the scatter/gather serving tier over the /v1 protocol:
// partition planning with halo replication (plan.go), shard subgraph
// construction and incremental halo maintenance as ordinary /v1/update
// batches (push.go), and the router itself (router.go) — the api.Backend
// that fans matches out to a fleet of plain strongsimd shards and merges
// the per-center results byte-identically to a single-node server, served
// through package api's one /v1 route tree. It is the repo's one
// partitioned evaluator of the paper's Section 4.3.
//
// The tier rests on the paper's data-locality result (Section 4.3): strong
// simulation evaluates one ball Ĝ[v, dQ] per candidate center v, and a ball
// of radius r lives wholly inside a fragment that replicates every node
// within r undirected hops of v. Each shard serves the subgraph within
// 2·halo hops of the nodes it owns, in the full global id space — member
// nodes carry their true labels, non-members a reserved filler label no
// pattern can name — and evaluates balls with zero network traffic. The
// router keeps, from shard i, exactly the results whose center is owned by
// i, so every center is reported once, by the one shard whose ball for it
// is provably identical to the global ball; the second halo makes the
// shard's own deduplication exact too (Plan.Members says why).
package shard

import (
	"encoding/json"
	"fmt"
	"io"

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
// shard, and each shard additionally replicates every node within 2·Halo
// undirected hops of a node it owns (see Members). Queries whose effective
// ball radius is at most Halo evaluate every owned center entirely
// shard-locally.
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
			visit := func(w int32) {
				if !seen[w] {
					seen[w] = true
					order = append(order, w)
				}
			}
			for _, w := range g.Out(x) {
				visit(w)
			}
			for _, w := range g.In(x) {
				visit(w)
			}
		}
	}
	chunk := max((n+k-1)/k, 1)
	for i, v := range order {
		owner[v] = int32(min(i/chunk, k-1))
	}
	return owner
}

// Validate checks the plan against a node count.
func (p *Plan) Validate(numNodes int) error {
	if p.Halo < 1 {
		return fmt.Errorf("shard: plan needs halo ≥ 1, got %d", p.Halo)
	}
	if p.K < 1 {
		return fmt.Errorf("shard: plan needs k ≥ 1, got %d", p.K)
	}
	if len(p.Owner) < numNodes {
		return fmt.Errorf("shard: plan covers %d nodes, graph has %d", len(p.Owner), numNodes)
	}
	for v, s := range p.Owner {
		if s < 0 || int(s) >= p.K {
			return fmt.Errorf("shard: node %d assigned to invalid shard %d", v, s)
		}
	}
	return nil
}

// ExtendTo assigns owners to nodes [len(Owner), n) round-robin by id, the
// deterministic rule for nodes created by update batches after planning.
func (p *Plan) ExtendTo(n int) {
	for v := len(p.Owner); v < n; v++ {
		p.Owner = append(p.Owner, int32(v%p.K))
	}
}

// Members computes, per shard, the membership bitmap over g: a node is a
// member of shard s when it lies within 2·Halo undirected hops of a node s
// owns (owned nodes themselves at distance 0). Every path of length ≤ 2·Halo
// from an owned node stays inside the member set, so for any node c within
// Halo of an owned node and any radius r ≤ Halo, the ball Ĝ[c, r] is
// identical in g and in the subgraph induced by the members.
//
// Halo hops would make the owned centers' balls whole, but not the merge
// exact: a shard deduplicates its matches onto the smallest producing
// center, and a center the shard holds but does not own, its ball
// truncated, can produce an owned center's subgraph; the router then drops
// that copy as unowned and no other shard reports the subgraph. A center
// that produces the same subgraph as an owned center c lies inside that
// subgraph, so within r ≤ Halo of c, and with 2·Halo hops its ball is whole
// too: every center that wins a shard's deduplication found its true global
// subgraph.
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
		// Multi-source undirected BFS from every owned node, depth ≤ 2·Halo.
		for depth := 0; depth < 2*p.Halo && len(frontier) > 0; depth++ {
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
