package plan

import (
	"slices"

	"repro/internal/graph"
)

// LabelBit maps a label id to its bit in a 64-bit Bloom signature. The
// same folding as TALE's NH-index (internal/approx), shared here so the
// exact and approximate paths agree on signature semantics.
func LabelBit(label int32) uint64 { return 1 << (uint32(label) % 64) }

// sig Bloom-summarizes the labels of one node's out- and in-neighbors.
type sig struct{ out, in uint64 }

// Index holds the per-snapshot candidate-pruning index: one directed
// neighbor-label signature pair per node, built in O(V+E). An Index is
// immutable and safe for concurrent queries.
//
// Every filter is a necessary condition for a center's ball to contain a
// match (see Prune), so pruning with stale requirements is impossible by
// construction: an Index describes one immutable graph and lives exactly as
// long as that graph's Snapshot. The next version's Index is derived from
// this one (Patched), never edited in place.
type Index struct {
	g *graph.Graph

	// sigs is paged like the graph's row headers, so the next version's index
	// shares every page the batch between them cannot have changed.
	sigs graph.Paged[sig]
}

// NewIndex builds the index of g.
func NewIndex(g *graph.Graph) *Index {
	sigs := make([]sig, g.NumNodes())
	for v := range sigs {
		sigs[v] = oneHop(g, int32(v))
	}
	indexBuilds.Inc()
	return &Index{g: g, sigs: graph.PagedOf(sigs)}
}

// oneHop folds the labels of v's out- and in-neighbors.
func oneHop(g *graph.Graph, v int32) (s sig) {
	for _, w := range g.Out(v) {
		s.out |= LabelBit(g.Label(w))
	}
	for _, w := range g.In(v) {
		s.in |= LabelBit(g.Label(w))
	}
	return s
}

// Graph returns the data graph this index describes.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// Delta names what one update batch changed between the graph an Index
// describes and the graph that follows it.
type Delta struct {
	// Rows lists the nodes whose out- or in-row differs, the nodes the batch
	// added included.
	Rows []int32
	// Relabelled lists the nodes whose label differs, and the added nodes
	// again. Duplicates are tolerated in both lists.
	Relabelled []int32
}

// PatchStats counts what one Patched call did.
type PatchStats struct {
	OneHop int // signatures recomputed
	Pages  int // signature pages copied; the rest are shared
}

// Patched returns the index of g — the graph d leads to from ix's — derived
// from ix in time proportional to what d names. A node's signature reads its
// own rows and its neighbors' labels, so it can differ only on
//
//	A = d.Rows ∪ N[d.Relabelled]
//
// with N[·] the closed undirected neighborhood in g (a neighbor a relabelled
// node lost in the same batch is in Rows). There it is *recomputed* from g —
// a Bloom bit cannot be cleared, so nothing is ever OR-ed into an inherited
// value — into copies of the pages holding A; every other page is ix's own,
// shared. ix, which older versions still read, is never written.
func (ix *Index) Patched(g *graph.Graph, d Delta) (*Index, PatchStats) {
	n := g.NumNodes()
	e := ix.sigs.Edit()
	for e.Len() < n {
		e.Append(sig{}) // added nodes; all of them are in d.Rows
	}
	area := slices.Clone(d.Rows)
	for _, v := range d.Relabelled {
		area = append(append(append(area, v), g.Out(v)...), g.In(v)...)
	}
	slices.Sort(area)
	area = slices.Compact(area)
	for _, v := range area {
		e.Set(v, oneHop(g, v))
	}
	indexPatches.Inc()
	return &Index{g: g, sigs: e.Freeze()}, PatchStats{OneHop: len(area), Pages: e.Copied()}
}

// Equal reports whether ix and o hold the same signatures. It is how tests
// pin a patched index against NewIndex on the same graph.
func (ix *Index) Equal(o *Index) bool {
	if ix.sigs.Len() != o.sigs.Len() {
		return false
	}
	for v := int32(0); v < int32(ix.sigs.Len()); v++ {
		if ix.sigs.At(v) != o.sigs.At(v) {
			return false
		}
	}
	return true
}

// PruneStats reports one Prune call: the candidate count walking in, how
// many centers each filter removed, and what the anchor check read.
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
func (ix *Index) Prune(q *graph.Graph, radius int, centers []int32, st *PruneStats) []int32 {
	kept := prune(ix.g, &ix.sigs, q, radius, centers, st)
	candidatesBefore.Add(int64(st.Before))
	prunedDegree.Add(int64(st.PrunedDegree))
	prunedAnchor.Add(int64(st.PrunedAnchor))
	return kept
}

// Anchored is Prune's anchor check alone, for a caller that holds a graph
// and no Index: it filters centers in place against q at the given ball
// radius and returns those that can anchor a match of q. The label-pair
// filter is the anchor check's first round behind a Bloom fold, so the
// survivors are exactly Prune's.
func Anchored(g, q *graph.Graph, radius int, centers []int32) []int32 {
	return prune(g, nil, q, radius, centers, new(PruneStats))
}

// prune is Prune over g; sigs, when non-nil, holds g's signatures and puts
// the label-pair filter in front of the anchor check.
func prune(g *graph.Graph, sigs *graph.Paged[sig], q *graph.Graph, radius int, centers []int32, st *PruneStats) []int32 {
	st.Before = len(centers)
	if len(centers) == 0 || q == nil || q.NumNodes() == 0 {
		return centers
	}

	// Pattern-side label sets, one entry per pattern node. Patterns are tiny,
	// so a small slice with linear scans beats a map, and up to 8 nodes it
	// lives on the stack.
	type labelReq struct {
		label int32
		sig   // Bloom-folded labels of the node's out-/in-neighbors
	}
	var small [8]labelReq
	reqs := small[:0]
	if q.NumNodes() > len(small) {
		reqs = make([]labelReq, 0, q.NumNodes())
	}
	for u := int32(0); u < int32(q.NumNodes()); u++ {
		reqs = append(reqs, labelReq{q.Label(u), oneHop(q, u)})
	}
	// At least one round, so that a one-node pattern with a self-loop is held
	// to it as the label-pair filter holds it; without edges a round is free.
	dq, _ := graph.Diameter(q)
	rounds := max(1, min(radius, dq))

	a := anchor{q: q, g: g}
	w := 0
	for _, c := range centers {
		// The center is kept by the first pattern node of its label it can
		// anchor; matched and paired tell which filter turned it away.
		matched, paired, ok := false, false, false
		clbl := g.Label(c)
		cs := sig{^uint64(0), ^uint64(0)} // without an index every label pair passes
		if sigs != nil {
			cs = sigs.At(c)
		}
		a.budget = anchorBudget
		for u := range reqs {
			r := &reqs[u]
			if r.label != clbl {
				continue
			}
			matched = true
			if r.out&^cs.out != 0 || r.in&^cs.in != 0 {
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
	// budget is what the center may still examine; once it is spent every
	// pending question answers yes, which unwinds the recursion and keeps
	// the center.
	budget int
}

// holds reports whether (u, v) survives k refinement rounds from the label
// candidates. The caller has established label(v) = label(u), which is
// round 0.
func (a *anchor) holds(u, v int32, k int) bool {
	if k == 0 {
		return true
	}
	for _, u2 := range a.q.Out(u) {
		if !a.witness(a.g.Out(v), u2, k-1) {
			return false
		}
	}
	for _, u2 := range a.q.In(u) {
		if !a.witness(a.g.In(v), u2, k-1) {
			return false
		}
	}
	return true
}

// witness reports whether row holds a node that survives k rounds for u.
func (a *anchor) witness(row []int32, u int32, k int) bool {
	lbl := a.q.Label(u)
	for _, w := range row {
		if a.budget <= 0 {
			return true
		}
		a.budget--
		if a.g.Label(w) == lbl && a.holds(u, w, k) {
			return true
		}
	}
	return false
}
