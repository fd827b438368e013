package graph

import "slices"

// Ball is the subgraph Ĝ[v, r] of a graph G: all nodes at undirected
// shortest distance at most r from the center v, together with every edge of
// G between those nodes (paper Section 2.2). The ball is materialized as its
// own re-indexed Graph so matching algorithms run on it unchanged.
type Ball struct {
	// G is the induced subgraph, with nodes re-indexed to [0, |ball|).
	G *Graph
	// Center is the ball center in ball coordinates.
	Center int32
	// Radius is r.
	Radius int
	// Orig maps ball node ids back to ids in the parent graph, ascending.
	Orig []int32
	// Dist holds the undirected distance of each ball node from the center.
	Dist []int32
}

// NewBall constructs Ĝ[center, radius] by undirected BFS.
func NewBall(g *Graph, center int32, radius int) *Ball {
	members, dist := bfsUndirected(g, center, radius)
	sub, orig, toNew := g.InducedSubgraph(members)
	b := &Ball{
		G:      sub,
		Radius: radius,
		Orig:   orig,
		Dist:   make([]int32, len(orig)),
	}
	for origID, d := range dist {
		b.Dist[toNew[origID]] = d
	}
	b.Center = toNew[center]
	return b
}

// bfsUndirected returns the nodes within undirected distance radius of
// start, together with their distances.
func bfsUndirected(g *Graph, start int32, radius int) ([]int32, map[int32]int32) {
	dist := map[int32]int32{start: 0}
	frontier := []int32{start}
	members := []int32{start}
	var row []int32
	for d := int32(1); int(d) <= radius && len(frontier) > 0; d++ {
		var next []int32
		visit := func(w int32) {
			if _, seen := dist[w]; !seen {
				dist[w] = d
				next = append(next, w)
				members = append(members, w)
			}
		}
		for _, v := range frontier {
			row = g.AppendIn(g.AppendOut(row[:0], v), v)
			for _, w := range row {
				visit(w)
			}
		}
		frontier = next
	}
	return members, dist
}

// ToBall translates a parent-graph node id to a ball id by binary search of
// the ascending Orig, returning -1 when the node has no id in the ball.
func (b *Ball) ToBall(orig int32) int32 {
	if i, ok := slices.BinarySearch(b.Orig, orig); ok {
		return int32(i)
	}
	return -1
}

// IsBorder reports whether ball node v lies on the border of the ball, i.e.
// at distance exactly Radius from the center. Only border nodes can lose
// neighbors to the ball cut, which is what Proposition 5 exploits.
func (b *Ball) IsBorder(v int32) bool { return int(b.Dist[v]) == b.Radius }

// NumNodes returns the number of nodes in the ball.
func (b *Ball) NumNodes() int { return b.G.NumNodes() }
