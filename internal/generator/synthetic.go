// Package generator produces the workloads of the paper's experimental
// study (Section 5): synthetic graphs parameterized by (n, α, l) — n nodes,
// n^α edges, l labels — pattern graphs sampled from data graphs, and
// offline stand-ins for the Amazon and YouTube networks (see DESIGN.md,
// substitutions 1 and 2).
package generator

import (
	"math"
	"math/rand"
	"strconv"

	"repro/internal/graph"
)

// Synthetic generates a random data graph with n nodes, ⌊n^α⌋ distinct
// directed edges and labels drawn uniformly from l label names ("l0" ...),
// reproducing the paper's synthetic generator (Section 5: "Given n, α, and
// l, the generator produces a graph with n nodes, n^α edges, and the nodes
// are labeled from a set of l labels"). The paper fixes l=200 and α=1.2 by
// default.
func Synthetic(n int, alpha float64, l int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(nil)
	b.SetName("synthetic")
	for i := 0; i < n; i++ {
		b.AddNode("l" + strconv.Itoa(rng.Intn(l)))
	}
	if n > 1 {
		m := int(math.Pow(float64(n), alpha))
		for added := 0; added < m; added++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u == v {
				continue
			}
			_ = b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// PatternOptions control pattern sampling.
type PatternOptions struct {
	// Nodes is |Vq|.
	Nodes int
	// Alpha is the pattern density αq: the sample targets ⌊|Vq|^αq⌋ edges
	// (bounded by the edges available in the sampled region). The paper
	// varies αq in [1.05, 1.35].
	Alpha float64
	// Seed drives the sampling.
	Seed int64
}

// SamplePattern extracts a connected pattern graph from a data graph: it
// performs an undirected BFS walk from a random seed collecting Nodes
// nodes, keeps a connected skeleton of induced edges and adds further
// induced edges up to the αq target.
//
// Sampling from the data graph (rather than generating patterns blindly)
// guarantees at least one subgraph-isomorphism match, which the paper's
// closeness metric divides by; with l=200 labels a blind random pattern
// virtually never matches (see EXPERIMENTS.md, workload notes).
func SamplePattern(g *graph.Graph, opts PatternOptions) *graph.Graph {
	if opts.Nodes < 1 || g.NumNodes() == 0 {
		return graph.NewBuilder(g.Labels()).Build()
	}
	if opts.Alpha <= 0 {
		opts.Alpha = 1.2
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Pick a seed inside a sufficiently large component; retry a few times.
	var nodes []int32
	for attempt := 0; attempt < 32; attempt++ {
		start := int32(rng.Intn(g.NumNodes()))
		nodes = randomConnectedSample(g, rng, start, opts.Nodes)
		if len(nodes) == opts.Nodes {
			break
		}
	}

	idx := make(map[int32]int32, len(nodes))
	b := graph.NewBuilder(g.Labels())
	b.SetName("pattern")
	for i, v := range nodes {
		b.AddNode(g.LabelName(v))
		idx[v] = int32(i)
	}

	// Induced edges, in deterministic order.
	var induced [][2]int32
	for _, v := range nodes {
		for _, w := range g.Out(v) {
			if _, ok := idx[w]; ok {
				induced = append(induced, [2]int32{idx[v], idx[w]})
			}
		}
	}
	target := int(math.Pow(float64(len(nodes)), opts.Alpha))
	if target < len(nodes)-1 {
		target = len(nodes) - 1
	}

	// Connected skeleton first: scan induced edges and keep those merging
	// distinct components (undirected union-find).
	uf := newUnionFind(len(nodes))
	chosen := make(map[[2]int32]bool)
	rng.Shuffle(len(induced), func(i, j int) { induced[i], induced[j] = induced[j], induced[i] })
	for _, e := range induced {
		if uf.union(int(e[0]), int(e[1])) {
			chosen[e] = true
		}
	}
	// Top up to the density target with remaining induced edges.
	for _, e := range induced {
		if len(chosen) >= target {
			break
		}
		chosen[e] = true
	}
	for e := range chosen {
		_ = b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// randomConnectedSample collects up to k nodes by a randomized undirected
// BFS/walk mixture from start.
func randomConnectedSample(g *graph.Graph, rng *rand.Rand, start int32, k int) []int32 {
	nodes := []int32{start}
	seen := map[int32]bool{start: true}
	frontier := []int32{start}
	for len(nodes) < k && len(frontier) > 0 {
		// Pop a random frontier node to vary shapes between samples.
		i := rng.Intn(len(frontier))
		v := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		nbs := g.AppendIn(g.Out(v), v)
		rng.Shuffle(len(nbs), func(i, j int) { nbs[i], nbs[j] = nbs[j], nbs[i] })
		for _, w := range nbs {
			if len(nodes) >= k {
				break
			}
			if !seen[w] {
				seen[w] = true
				nodes = append(nodes, w)
				frontier = append(frontier, w)
			}
		}
	}
	return nodes
}

// RandomPattern generates a connected random pattern whose labels are drawn
// from the data graph's empirical label distribution — the paper's setup
// for the performance study, where patterns come from the same generator as
// the data and usually have no exact match. These are the instances on
// which VF2's exponential search shows (Figures 8(a), 8(b)); SamplePattern
// is the right choice when matches must exist (closeness).
func RandomPattern(g *graph.Graph, opts PatternOptions) *graph.Graph {
	if opts.Nodes < 1 || g.NumNodes() == 0 {
		return graph.NewBuilder(g.Labels()).Build()
	}
	if opts.Alpha <= 0 {
		opts.Alpha = 1.2
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	b := graph.NewBuilder(g.Labels())
	b.SetName("random-pattern")
	for i := 0; i < opts.Nodes; i++ {
		// A uniformly random node's label realizes the empirical label
		// distribution, including its skew.
		v := int32(rng.Intn(g.NumNodes()))
		b.AddNode(g.LabelName(v))
	}
	// Connected skeleton with random directions, then density top-up.
	for i := 1; i < opts.Nodes; i++ {
		p := int32(rng.Intn(i))
		if rng.Intn(2) == 0 {
			_ = b.AddEdge(p, int32(i))
		} else {
			_ = b.AddEdge(int32(i), p)
		}
	}
	target := int(math.Pow(float64(opts.Nodes), opts.Alpha))
	for extra := opts.Nodes - 1; extra < target; extra++ {
		u := int32(rng.Intn(opts.Nodes))
		v := int32(rng.Intn(opts.Nodes))
		if u != v {
			_ = b.AddEdge(u, v)
		}
	}
	return b.Build()
}

type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// union merges the classes of a and b, reporting whether they were distinct.
func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	uf.parent[ra] = rb
	return true
}
