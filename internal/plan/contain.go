package plan

import "repro/internal/graph"

// containBudget caps the backtracking steps of one containment search.
// Patterns are tiny (a handful of nodes); the budget only guards against
// adversarial label-uniform patterns where the search space explodes.
// Exhausting it reports "not contained", which costs a cache miss, never
// a wrong answer.
const containBudget = 50000

// ContainedIn reports whether evaluating qNew restricted to the cached
// match centers of qCached is sound: it searches for a surjective
// label-name-preserving homomorphism φ from qCached onto qNew (every
// qCached edge (u,u') maps to a qNew edge (φu,φu'), every qNew node is
// hit).
//
// Why that direction: if ball Ĝ[v,r] strong-simulation-matches qNew, then
// composing the match relation with φ (each qCached node u matched by
// qNew-node φ(u)'s matches) yields a dual-simulation match of qCached in
// the same ball — φ maps edges to edges, so successors/predecessors carry
// over — and surjectivity keeps the composed relation's range the whole
// matched subgraph, so the ball also matches qCached. Contrapositive:
// centers whose balls did not match qCached (at radius ≥ qNew's) cannot
// match qNew, hence the cached outcome-center set is a superset of qNew's
// match centers. The radius comparison is the caller's job (the cache
// compares effective radii explicitly; diameters are not monotone under
// containment).
func ContainedIn(qNew, qCached *graph.Graph) bool {
	if qNew == nil || qCached == nil {
		return false
	}
	nNew, nCached := qNew.NumNodes(), qCached.NumNodes()
	if nCached < nNew {
		return false // a surjection needs at least as many sources
	}

	// Candidate targets per cached node, by label name.
	cands := make([][]int32, nCached)
	for u := int32(0); u < int32(nCached); u++ {
		name := qCached.LabelName(u)
		for v := int32(0); v < int32(nNew); v++ {
			if qNew.LabelName(v) == name {
				cands[u] = append(cands[u], v)
			}
		}
		if len(cands[u]) == 0 {
			return false
		}
	}

	// Order cached nodes fewest-candidates-first for early failure.
	order := make([]int32, nCached)
	for i := range order {
		order[i] = int32(i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && len(cands[order[j]]) < len(cands[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	phi := make([]int32, nCached)
	for i := range phi {
		phi[i] = -1
	}
	covered := make([]int, nNew) // how many cached nodes map to each qNew node
	coveredCount := 0
	budget := containBudget

	var rec func(step int) bool
	rec = func(step int) bool {
		if step == nCached {
			return coveredCount == nNew
		}
		// Even mapping every remaining node to an uncovered target cannot
		// reach surjectivity: prune.
		if coveredCount+(nCached-step) < nNew {
			return false
		}
		u := order[step]
		for _, v := range cands[u] {
			if budget--; budget < 0 {
				return false
			}
			if !consistent(qCached, qNew, phi, u, v) {
				continue
			}
			phi[u] = v
			if covered[v] == 0 {
				coveredCount++
			}
			covered[v]++
			if rec(step + 1) {
				return true
			}
			covered[v]--
			if covered[v] == 0 {
				coveredCount--
			}
			phi[u] = -1
		}
		return false
	}
	return rec(0)
}

// consistent checks that assigning phi[u] = v preserves every qCached edge
// whose other endpoint is already assigned.
func consistent(qCached, qNew *graph.Graph, phi []int32, u, v int32) bool {
	row := qCached.AppendOut(make([]int32, 0, 16), u)
	for _, w := range row {
		if w == u {
			if !qNew.HasEdge(v, v) {
				return false
			}
			continue
		}
		if t := phi[w]; t >= 0 && !qNew.HasEdge(v, t) {
			return false
		}
	}
	for _, w := range qCached.AppendIn(row[:0], u) {
		if w == u {
			continue // handled above
		}
		if t := phi[w]; t >= 0 && !qNew.HasEdge(t, v) {
			return false
		}
	}
	return true
}
