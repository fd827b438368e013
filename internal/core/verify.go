package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/simulation"
)

// Verify checks every defining condition of a maximum perfect subgraph
// (Section 2.2) against the original pattern and data graph, returning a
// descriptive error on the first violation. It is used by the property
// tests and is deliberately independent of the matching code paths: it
// re-derives everything from the definitions.
func (ps *PerfectSubgraph) Verify(q, g *graph.Graph, radius int) error {
	if len(ps.Nodes) == 0 {
		return fmt.Errorf("empty perfect subgraph")
	}
	// Every edge must exist in G and connect subgraph nodes.
	for _, e := range ps.Edges {
		if !g.HasEdge(e[0], e[1]) {
			return fmt.Errorf("edge (%d,%d) not in data graph", e[0], e[1])
		}
		if !ps.Contains(e[0]) || !ps.Contains(e[1]) {
			return fmt.Errorf("edge (%d,%d) leaves the subgraph", e[0], e[1])
		}
	}
	gs, orig := ps.Graph(g)
	toNew := make(map[int32]int32, len(orig))
	for i, v := range orig {
		toNew[v] = int32(i)
	}

	// Condition: Gs is connected (Theorem 2 / definition of ExtractMaxPG).
	if !gs.IsConnected() {
		return fmt.Errorf("perfect subgraph is disconnected")
	}

	// Condition 1: Q ≺D Gs with maximum match relation S.
	rel, ok := simulation.Dual(q, gs)
	if !ok {
		return fmt.Errorf("Q does not dual-match the subgraph")
	}
	// Condition 2: Gs is exactly the match graph w.r.t. S: every node and
	// every edge of Gs must be witnessed.
	mg := simulation.BuildMatchGraph(q, gs, rel)
	if mg.Nodes.Len() != gs.NumNodes() {
		return fmt.Errorf("match graph covers %d of %d subgraph nodes", mg.Nodes.Len(), gs.NumNodes())
	}
	if len(mg.Edges) != gs.NumEdges() {
		return fmt.Errorf("match graph has %d of %d subgraph edges", len(mg.Edges), gs.NumEdges())
	}

	// Condition 3: Gs is contained in the ball Ĝ[center, radius], i.e.
	// every subgraph node is within `radius` undirected hops of the center
	// in the data graph. Proposition 3 — pairwise distance ≤ 2·radius, the
	// paper's locality bound — follows by the triangle inequality.
	if _, ok2 := toNew[ps.Center]; !ok2 {
		return fmt.Errorf("center %d not part of the subgraph", ps.Center)
	}
	distG := graph.Distances(g, ps.Center)
	for _, v := range ps.Nodes {
		if d := distG[v]; d < 0 || int(d) > radius {
			return fmt.Errorf("node %d at distance %d from center %d, radius %d", v, d, ps.Center, radius)
		}
	}

	// The reported relation must agree with the recomputed one.
	for u, matches := range ps.Rel {
		for _, v := range matches {
			nv, in := toNew[v]
			if !in {
				return fmt.Errorf("relation maps q%d to %d outside the subgraph", u, v)
			}
			if u < len(rel) && !rel[u].Contains(nv) {
				return fmt.Errorf("relation pair (q%d,%d) not in recomputed maximum relation", u, v)
			}
		}
	}
	return nil
}
