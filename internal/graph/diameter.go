package graph

import "math/bits"

// Distances returns the undirected shortest distance from start to every
// node, with -1 for unreachable nodes (paper Section 2.1: dist is measured
// on undirected paths).
func Distances(g *Graph, start int32) []int32 {
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	queue := []int32{start}
	var row []int32
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		row = g.AppendIn(g.AppendOut(row[:0], v), v)
		for _, w := range row {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Dist returns the undirected shortest distance between u and v, or -1 when
// they are disconnected.
func Dist(g *Graph, u, v int32) int32 {
	if u == v {
		return 0
	}
	return Distances(g, u)[v]
}

// Diameter returns the diameter dG of g: the longest shortest undirected
// distance between any pair of nodes. It requires g to be connected; the
// second result is false otherwise (the diameter of a disconnected graph is
// undefined in the paper). Runs one BFS per node — O(|V|(|V|+|E|)) — which
// is fine for pattern graphs; data-graph diameters are never needed by the
// algorithms. Up to 64 nodes — every pattern a query brings — it allocates
// nothing, so the per-request callers need not cache it.
func Diameter(g *Graph) (int, bool) {
	n := g.NumNodes()
	if n == 0 {
		return 0, true
	}
	if n <= 64 {
		return smallDiameter(g)
	}
	return bfsDiameter(g)
}

// bfsDiameter is Diameter by one Distances call per node.
func bfsDiameter(g *Graph) (int, bool) {
	max := int32(0)
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		dist := Distances(g, v)
		for _, d := range dist {
			if d < 0 {
				return 0, false
			}
			if d > max {
				max = d
			}
		}
	}
	return int(max), true
}

// smallDiameter is Diameter for at most 64 nodes: a node set is one word, and
// a BFS level is the union of the frontier's neighbor words.
func smallDiameter(g *Graph) (int, bool) {
	n := g.NumNodes()
	var adj [64]uint64 // undirected neighbors
	row := make([]int32, 0, 64)
	for v := int32(0); v < int32(n); v++ {
		row = g.AppendOut(row[:0], v)
		for _, w := range row {
			adj[v] |= 1 << uint(w)
			adj[w] |= 1 << uint(v)
		}
	}
	all := ^uint64(0) >> (64 - uint(n))
	diameter := 0
	for v := 0; v < n; v++ {
		seen := uint64(1) << uint(v)
		depth := 0
		for frontier := seen; seen != all; depth++ {
			var next uint64
			for ; frontier != 0; frontier &= frontier - 1 {
				next |= adj[bits.TrailingZeros64(frontier)]
			}
			if frontier = next &^ seen; frontier == 0 {
				return 0, false // v reaches nothing new and has not reached all
			}
			seen |= frontier
		}
		diameter = max(diameter, depth)
	}
	return diameter, true
}
