// Package simulation implements the family of simulation relations the
// paper builds on: graph simulation ≺ (Milner; computed with an HHK-style
// worklist algorithm), dual simulation ≺D (paper Section 2.2), the naive
// fixpoint variants used as executable specifications (paper Fig. 3,
// procedure DualSim) and match graphs.
package simulation

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Relation is a binary match relation S ⊆ Vq × V stored as one data-node
// set per pattern node: rel[u] = { v | (u,v) ∈ S }.
type Relation []*graph.NodeSet

// Pair is one (pattern node, data node) element of a match relation.
type Pair struct {
	Q int32 // pattern node
	G int32 // data node
}

// NewRelation returns an all-empty relation for a pattern with nq nodes over
// a data graph with capacity data nodes.
func NewRelation(nq, capacity int) Relation {
	rel := make(Relation, nq)
	for i := range rel {
		rel[i] = graph.NewNodeSet(capacity)
	}
	return rel
}

// InitByLabel returns the label-candidate relation of the paper's Fig. 3
// (DualSim lines 1-2): rel[u] = all data nodes with u's label.
func InitByLabel(q, g *graph.Graph) Relation { return InitByLabelIn(q, g, nil) }

// Clone deep-copies the relation.
func (rel Relation) Clone() Relation {
	out := make(Relation, len(rel))
	for i, s := range rel {
		out[i] = s.Clone()
	}
	return out
}

// Equal reports whether two relations contain exactly the same pairs.
func (rel Relation) Equal(other Relation) bool {
	if len(rel) != len(other) {
		return false
	}
	for i := range rel {
		if !rel[i].Equal(other[i]) {
			return false
		}
	}
	return true
}

// Total reports whether every pattern node has at least one match, the
// success condition of every simulation variant.
func (rel Relation) Total() bool {
	for _, s := range rel {
		if s.Empty() {
			return false
		}
	}
	return true
}

// Contains reports whether (u,v) is in the relation.
func (rel Relation) Contains(u, v int32) bool { return rel[u].Contains(v) }

// Pairs returns all (pattern, data) pairs in ascending order.
func (rel Relation) Pairs() []Pair {
	var out []Pair
	for u, s := range rel {
		s.ForEach(func(v int32) { out = append(out, Pair{Q: int32(u), G: v}) })
	}
	return out
}

// Len returns the number of pairs.
func (rel Relation) Len() int {
	n := 0
	for _, s := range rel {
		n += s.Len()
	}
	return n
}

// DataNodes returns the set of data nodes mentioned by the relation (the
// node set of the paper's match graph).
func (rel Relation) DataNodes(capacity int) *graph.NodeSet {
	return rel.DataNodesIn(capacity, nil)
}

// DataNodesIn is DataNodes into one of sc's spare sets (a nil sc allocates).
func (rel Relation) DataNodesIn(capacity int, sc *Scratch) *graph.NodeSet {
	out := sc.SpareSet(capacity)
	for _, s := range rel {
		out.UnionWith(s)
	}
	return out
}

// SubsetOf reports whether rel ⊆ other.
func (rel Relation) SubsetOf(other Relation) bool {
	if len(rel) != len(other) {
		return false
	}
	for u := range rel {
		ok := true
		rel[u].ForEach(func(v int32) {
			if !other[u].Contains(v) {
				ok = false
			}
		})
		if !ok {
			return false
		}
	}
	return true
}

// String renders the relation using pattern/data labels, for tests and
// debugging: "u0(HR)->{3,7} ...".
func (rel Relation) String() string {
	var sb strings.Builder
	for u, s := range rel {
		fmt.Fprintf(&sb, "q%d->%v ", u, s.Slice())
	}
	return strings.TrimSpace(sb.String())
}

// Project restricts the relation to data nodes that satisfy keep, returning
// a new relation (used to project a global relation onto a ball, paper
// Fig. 5 line 1).
func (rel Relation) Project(keep func(v int32) bool) Relation {
	out := make(Relation, len(rel))
	for u, s := range rel {
		ns := graph.NewNodeSet(s.Capacity())
		s.ForEach(func(v int32) {
			if keep(v) {
				ns.Add(v)
			}
		})
		out[u] = ns
	}
	return out
}

// MatchGraph is the paper's match graph w.r.t. a relation S (Section 2.2):
// the subgraph of G whose nodes are the data nodes of S and whose edges are
// the data edges (v,v') witnessing some pattern edge (u,u') with (u,v) and
// (u',v') in S.
type MatchGraph struct {
	Nodes *graph.NodeSet
	Edges [][2]int32
	adj   map[int32][]int32 // undirected adjacency over Edges
}

// BuildMatchGraph materializes the match graph of rel over g for pattern q.
func BuildMatchGraph(q, g *graph.Graph, rel Relation) *MatchGraph {
	m := &MatchGraph{Nodes: rel.DataNodes(g.NumNodes()), adj: make(map[int32][]int32)}
	seen := make(map[[2]int32]bool)
	row := make([]int32, 0, 16)
	q.Edges(func(u, u2 int32) {
		rel[u].ForEach(func(v int32) {
			row = g.AppendOut(row[:0], v)
			for _, w := range row {
				if !rel[u2].Contains(w) {
					continue
				}
				e := [2]int32{v, w}
				if seen[e] {
					continue
				}
				seen[e] = true
				m.Edges = append(m.Edges, e)
				m.adj[v] = append(m.adj[v], w)
				m.adj[w] = append(m.adj[w], v)
			}
		})
	})
	sort.Slice(m.Edges, func(i, j int) bool {
		if m.Edges[i][0] != m.Edges[j][0] {
			return m.Edges[i][0] < m.Edges[j][0]
		}
		return m.Edges[i][1] < m.Edges[j][1]
	})
	return m
}

// ComponentOf returns the nodes and edges of the undirected connected
// component of the match graph containing start (isolated matched nodes form
// singleton components). The bool is false when start is not in the match
// graph. This is procedure ExtractMaxPG's component step (paper Fig. 3).
func (m *MatchGraph) ComponentOf(start int32) ([]int32, [][2]int32, bool) {
	if !m.Nodes.Contains(start) {
		return nil, nil, false
	}
	seen := map[int32]bool{start: true}
	queue := []int32{start}
	nodes := []int32{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range m.adj[v] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
				nodes = append(nodes, w)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var edges [][2]int32
	for _, e := range m.Edges {
		if seen[e[0]] && seen[e[1]] {
			edges = append(edges, e)
		}
	}
	return nodes, edges, true
}

// Components partitions the match graph into connected components, each
// returned as (nodes, edges).
func (m *MatchGraph) Components() (comps [][]int32, edges [][][2]int32) {
	visited := graph.NewNodeSet(m.Nodes.Capacity())
	m.Nodes.ForEach(func(v int32) {
		if visited.Contains(v) {
			return
		}
		nodes, es, _ := m.ComponentOf(v)
		for _, n := range nodes {
			visited.Add(n)
		}
		comps = append(comps, nodes)
		edges = append(edges, es)
	})
	return comps, edges
}
