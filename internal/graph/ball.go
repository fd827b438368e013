package graph

import "slices"

// Ball is the subgraph Ĝ[v, r] of a graph G: all nodes at undirected
// shortest distance at most r from the center v, together with every edge of
// G between those nodes (paper Section 2.2). Matching algorithms run on the
// graph G of the ball unchanged. Either G is the ball itself, re-indexed
// (NewBall, BallScratch.Build and BuildRestricted), and every node of G is a
// member; or G is a query's kept graph and the ball is a view of it
// (BallScratch.View): Members lists the nodes of G that the ball holds, and
// the ball's edges are G's edges between two members.
type Ball struct {
	// G is the graph the ball's nodes are ids of: the induced subgraph,
	// re-indexed to [0, |ball|), or the kept graph a view lives in.
	G *Graph
	// Center is the ball center in G's ids.
	Center int32
	// Radius is r.
	Radius int
	// Orig maps G's node ids back to ids in the parent graph, ascending.
	Orig []int32
	// Members lists the ball's nodes as ids of G, ascending, when G holds
	// more than the ball (a view); nil when every node of G is a member.
	Members []int32
	// Dist holds the undirected distance from the center of each member:
	// of Members[i], or of node i when Members is nil.
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

// ToBall translates a parent-graph node id to an id of G by binary search of
// the ascending Orig, returning -1 when the node has no id in G.
func (b *Ball) ToBall(orig int32) int32 {
	if i, ok := slices.BinarySearch(b.Orig, orig); ok {
		return int32(i)
	}
	return -1
}

// Member returns the i-th member of the ball as a node of G, i in
// [0, NumNodes()).
func (b *Ball) Member(i int) int32 {
	if b.Members == nil {
		return int32(i)
	}
	return b.Members[i]
}

// IsBorder reports whether the i-th member lies on the border of the ball,
// i.e. at distance exactly Radius from the center. Only border nodes can
// lose neighbors to the ball cut, which is what Proposition 5 exploits.
func (b *Ball) IsBorder(i int) bool { return int(b.Dist[i]) == b.Radius }

// NumNodes returns the number of nodes in the ball.
func (b *Ball) NumNodes() int { return len(b.Dist) }

// NumEdges returns the number of edges in the ball: G's, or for a view the
// edges of G between two members, counted by a walk of the members' rows.
func (b *Ball) NumEdges() int {
	if b.Members == nil {
		return b.G.NumEdges()
	}
	n := 0
	for _, v := range b.Members {
		b.G.out.Any(v, func(w int32) bool {
			if _, ok := slices.BinarySearch(b.Members, w); ok {
				n++
			}
			return false
		})
	}
	return n
}
