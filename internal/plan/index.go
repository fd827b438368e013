package plan

import "repro/internal/graph"

// Index is the planner's handle on one immutable data graph: the
// candidate-pruning filters of Prune read the graph's own neighbour-label
// signatures (graph.Graph.SigRow), so an Index holds nothing else and
// costs nothing to make. It is safe for concurrent queries.
//
// Every filter is a necessary condition for a center's ball to contain a
// match (see Prune), so pruning with stale requirements is impossible by
// construction: the signatures describe the one immutable graph they belong
// to, and the next version's graph derives its own (graph.FromParts).
type Index struct {
	g *graph.Graph
}

// NewIndex returns the index of g.
func NewIndex(g *graph.Graph) *Index { return &Index{g: g} }

// Graph returns the data graph this index describes.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// PruneStats reports one Prune call: the candidate count walking in, how
// many centers each filter removed, and what the anchor check read.
//
// Deprecated: the engine always filters; kept only because bench/ reads it.
type PruneStats struct {
	Before       int
	PrunedDegree int
	PrunedAnchor int
	// AnchorEntries counts the adjacency entries the anchor check examined.
	AnchorEntries int
}

// anchorBudget bounds the adjacency entries the anchor check may examine for
// one center, over every pattern node it tries. The unfolding is not
// memoised, so on hostile input (one label, high degree, a large radius
// override) it is exponential in its depth; a center that exhausts the
// budget is kept undecided. On the 100k-node bench graph a center reaching
// the check costs 9-16 entries on average and 76 at most (EXPERIMENTS.md "No
// ball without an anchor").
const anchorBudget = 4096

// Prune filters centers in place against q at the given ball radius and
// returns the surviving prefix. Both filters are necessary conditions,
// applied cheapest first:
//
//   - Label-pair: the center must itself match some pattern node u with
//     label(u) = label(v) (w ∈ Q(w) by Theorem 4.2's match definition — the
//     center anchors the ball), and dual simulation then requires v to have
//     a successor for every edge out of u and a predecessor for every edge
//     into it; ball adjacency is a subset of full-graph adjacency, so the
//     Bloom-folded labels of v's out- (in-) neighbors must cover those of
//     u's.
//
//   - Anchor: the same condition, exact and k = min(r, dQ) rounds deep (at
//     least one). A dual simulation on the ball is one on G, and every dual
//     simulation on G lies inside each round R_0 ⊇ R_1 ⊇ … of refinement
//     from the label candidates, so (u, v) in the ball's relation puts
//     (u, v) in R_k: every pattern edge (u, u') has an out-neighbor w of v
//     with (u', w) in R_{k-1}, every (u″, u) an in-neighbor likewise. The
//     check unfolds that from v, first fit. Any k is sound (Match+'s global
//     filter is the limit k → ∞); k ≤ r reads only adjacency rows the
//     ball's BFS would load next, and past dQ rounds the unfolding revisits
//     pattern nodes for little.
//
// Centers whose label matches no pattern node pass untouched (fail open);
// the caller's candidate selection should have excluded them already.
//
// Deprecated: the engine always filters; kept only because bench/ reads it.
// Standing-query maintenance calls Anchored.
func (ix *Index) Prune(q *graph.Graph, radius int, centers []int32, st *PruneStats) []int32 {
	return prune(ix.g, q, radius, centers, st)
}

// Anchored is Prune for a caller that wants the survivors and not the
// stats: it filters centers in place against q at the given ball radius and
// returns those that can anchor a match of q.
func Anchored(g, q *graph.Graph, radius int, centers []int32) []int32 {
	var st PruneStats
	return prune(g, q, radius, centers, &st)
}

func prune(g, q *graph.Graph, radius int, centers []int32, st *PruneStats) []int32 {
	st.Before = len(centers)
	if len(centers) == 0 || q == nil || q.NumNodes() == 0 {
		return centers
	}

	// Pattern-side requirements, one entry per pattern node, each with the
	// signature row of its label in g. Patterns are tiny, so a small slice
	// with linear scans beats a map, and up to 8 nodes it lives on the stack.
	type labelReq struct {
		label int32
		need  graph.Sig    // Bloom-folded labels of the node's out-/in-neighbors
		sigs  graph.SigRow // g.SigRow(label), addressed by label rank
	}
	var small [8]labelReq
	reqs := small[:0]
	if q.NumNodes() > len(small) {
		reqs = make([]labelReq, 0, q.NumNodes())
	}
	for u := int32(0); u < int32(q.NumNodes()); u++ {
		lbl := q.Label(u)
		reqs = append(reqs, labelReq{lbl, q.NeighbourSig(u), g.SigRow(lbl)})
	}
	rank := g.LabelRanks()
	// At least one round, so that a one-node pattern with a self-loop is held
	// to it as the label-pair filter holds it; without edges a round is free.
	dq, _ := graph.Diameter(q)
	rounds := max(1, min(radius, dq))

	a := newAnchor(q, g)
	w := 0
	for _, c := range centers {
		// The center is kept by the first pattern node of its label it can
		// anchor; matched and paired tell which filter turned it away.
		matched, paired, ok := false, false, false
		clbl := g.Label(c)
		a.budget = anchorBudget
		for u := range reqs {
			r := &reqs[u]
			if r.label != clbl {
				continue
			}
			matched = true
			if !r.sigs.At(rank[c]).Covers(r.need) {
				continue
			}
			paired = true
			if ok = a.holds(int32(u), c, rounds); ok {
				break
			}
		}
		st.AnchorEntries += anchorBudget - a.budget
		switch {
		case ok || !matched:
			centers[w] = c
			w++
		case paired:
			st.PrunedAnchor++
		default:
			st.PrunedDegree++
		}
	}
	return centers[:w]
}

// anchor is the state of one center's anchor check (see Prune).
type anchor struct {
	q, g *graph.Graph
	// qAdj and gAdj are q's and g's out- ([0]) and in-rows ([1]).
	qAdj, gAdj [2]graph.CSR
	// budget is what the center may still examine; once it is spent every
	// pending question answers yes, which unwinds the recursion and keeps
	// the center.
	budget int
}

func newAnchor(q, g *graph.Graph) anchor {
	a := anchor{q: q, g: g}
	a.qAdj[0], a.qAdj[1] = q.Rows()
	a.gAdj[0], a.gAdj[1] = g.Rows()
	return a
}

// holds reports whether (u, v) survives k refinement rounds from the label
// candidates. The caller has established label(v) = label(u), which is
// round 0.
func (a *anchor) holds(u, v int32, k int) bool {
	if k == 0 {
		return true
	}
	for d := range a.qAdj {
		if a.qAdj[d].Any(u, func(u2 int32) bool { return !a.witness(d, v, u2, k-1) }) {
			return false
		}
	}
	return true
}

// witness reports whether row v of a.gAdj[d] holds a node that survives k
// rounds for u. The row is decoded only as far as the check reads it.
func (a *anchor) witness(d int, v, u int32, k int) bool {
	lbl := a.q.Label(u)
	return a.gAdj[d].Any(v, func(w int32) bool {
		if a.budget <= 0 {
			return true
		}
		a.budget--
		return a.g.Label(w) == lbl && a.holds(u, w, k)
	})
}
