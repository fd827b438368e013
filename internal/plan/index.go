package plan

import (
	"slices"
	"sync"

	"repro/internal/graph"
)

// maxHopSig bounds how many hop-signature levels an Index materializes.
// A level costs 8 bytes per node and one O(E) sweep; realistic pattern
// diameters are 1-4. Queries with a larger effective radius simply skip
// the signature filter — soundness never depends on having a level.
const maxHopSig = 6

// LabelBit maps a label id to its bit in a 64-bit Bloom signature. The
// same folding as TALE's NH-index (internal/approx), shared here so the
// exact and approximate paths agree on signature semantics.
func LabelBit(label int32) uint64 { return 1 << (uint32(label) % 64) }

// Index holds the per-snapshot candidate-pruning indexes: one-hop
// directed neighbor-label signatures (built eagerly, O(V+E)), and r-hop
// undirected label signatures built lazily per requested radius. An Index is
// immutable after construction except for the lazily grown hop levels, which
// are guarded; it is safe for concurrent queries.
//
// Every filter is a necessary condition for a center's ball to contain a
// match (see Prune), so pruning with stale requirements is impossible by
// construction: an Index describes one immutable graph and lives exactly as
// long as that graph's Snapshot. The next version's Index is derived from
// this one (Patched), never edited in place.
type Index struct {
	g *graph.Graph

	// outSig[v] / inSig[v] Bloom-summarize the labels of v's out-/in-
	// neighbors; used by the label-pair filter.
	outSig, inSig []uint64

	// hop[k][v] Bloom-summarizes every label within k undirected hops of
	// v (hop[0] is v's own label). Grown on demand under mu; a level, once
	// appended, is never written again.
	mu  sync.Mutex
	hop [][]uint64
}

// NewIndex builds the one-hop indexes for g. The r-hop signatures are
// materialized on first use per radius.
func NewIndex(g *graph.Graph) *Index {
	n := g.NumNodes()
	ix := &Index{g: g, outSig: make([]uint64, n), inSig: make([]uint64, n)}
	own := make([]uint64, n)
	for v := int32(0); v < int32(n); v++ {
		own[v] = LabelBit(g.Label(v))
	}
	for v := int32(0); v < int32(n); v++ {
		ix.outSig[v], ix.inSig[v] = oneHop(g, own, v)
	}
	ix.hop = [][]uint64{own}
	indexBuilds.Inc()
	return ix
}

// oneHop folds the labels (own is hop level 0) of v's out- and in-neighbors.
func oneHop(g *graph.Graph, own []uint64, v int32) (o, i uint64) {
	for _, w := range g.Out(v) {
		o |= own[w]
	}
	for _, w := range g.In(v) {
		i |= own[w]
	}
	return o, i
}

// nextHop is v's signature one level above prev: its own OR its undirected
// neighbors'.
func nextHop(g *graph.Graph, prev []uint64, v int32) uint64 {
	s := prev[v]
	for _, w := range g.Out(v) {
		s |= prev[w]
	}
	for _, w := range g.In(v) {
		s |= prev[w]
	}
	return s
}

// Graph returns the data graph this index describes.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// hopSig returns the r-hop label signatures, building missing levels by
// iterated undirected OR (each level is one O(V+E) sweep). Returns nil
// when r exceeds maxHopSig — a smaller-radius signature would prune
// unsoundly, so callers skip the filter instead.
func (ix *Index) hopSig(r int) []uint64 {
	if r < 0 {
		r = 0
	}
	if r > maxHopSig {
		return nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for len(ix.hop) <= r {
		prev := ix.hop[len(ix.hop)-1]
		next := make([]uint64, len(prev))
		for v := int32(0); v < int32(len(prev)); v++ {
			next[v] = nextHop(ix.g, prev, v)
		}
		ix.hop = append(ix.hop, next)
	}
	return ix.hop[r]
}

// builtLevels returns the hop levels built so far. The list grows while
// readers run, so it is read under mu; the levels themselves are immutable.
func (ix *Index) builtLevels() [][]uint64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.hop[:len(ix.hop):len(ix.hop)]
}

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

// PatchStats counts the nodes one Patched call recomputed.
type PatchStats struct {
	OneHop int   // outSig/inSig pairs: |A_1|
	Levels []int // per carried hop level k: |A_k|
}

// Patched returns the index of g — the graph d leads to from ix's — derived
// from ix in time proportional to the region d can reach, plus one flat copy
// per array. Every array of the result is its own: the copy is what keeps ix,
// which older versions still read, bit-identical. On the copies, signatures
// are *recomputed* from g wherever they can differ (a Bloom bit cannot be
// cleared, so nothing is ever OR-ed into an inherited value):
//
//	A_0 = d.Relabelled                 level 0 (own label)
//	A_k = d.Rows ∪ N[A_{k-1}]          level k, read from the new level k-1
//
// with N[·] the closed undirected neighborhood in g; outSig and inSig are
// recomputed over A_1. Outside A_k a node kept both rows and every member of
// its closed neighborhood kept its level k-1 value (induction on k), so its
// level k value stands. Only the levels ix had built when called are
// carried; the rest stay lazy.
func (ix *Index) Patched(g *graph.Graph, d Delta) (*Index, PatchStats) {
	n := g.NumNodes()
	levels := ix.builtLevels()
	grown := func(a []uint64) []uint64 {
		c := make([]uint64, n)
		copy(c, a)
		return c
	}
	nx := &Index{g: g, outSig: grown(ix.outSig), inSig: grown(ix.inSig), hop: make([][]uint64, len(levels))}
	for k, level := range levels {
		nx.hop[k] = grown(level)
	}

	// area holds A_k in insertion order; A_k ⊇ A_{k-1} from k = 1 on, so each
	// level only expands the members the previous one added.
	in := graph.NewNodeSet(n)
	var area []int32
	add := func(v int32) {
		if in.Add(v) {
			area = append(area, v)
		}
	}
	for _, v := range d.Relabelled {
		add(v)
	}
	own := nx.hop[0]
	for _, v := range area {
		own[v] = LabelBit(g.Label(v))
	}
	st := PatchStats{Levels: make([]int, len(nx.hop))}
	st.Levels[0] = len(area)
	expanded := 0
	for k := 1; k == 1 || k < len(nx.hop); k++ {
		end := len(area)
		for _, v := range area[expanded:end] {
			for _, w := range g.Out(v) {
				add(w)
			}
			for _, w := range g.In(v) {
				add(w)
			}
		}
		expanded = end
		if k == 1 {
			for _, v := range d.Rows {
				add(v)
			}
			for _, v := range area {
				nx.outSig[v], nx.inSig[v] = oneHop(g, own, v)
			}
			st.OneHop = len(area)
		}
		if k < len(nx.hop) {
			prev, cur := nx.hop[k-1], nx.hop[k]
			for _, v := range area {
				cur[v] = nextHop(g, prev, v)
			}
			st.Levels[k] = len(area)
		}
	}
	indexPatches.Inc()
	return nx, st
}

// Equal reports whether ix and o hold the same signatures: outSig, inSig and
// every hop level ix has built (o builds the ones it lacks). It is how tests
// pin a patched index against NewIndex on the same graph.
func (ix *Index) Equal(o *Index) bool {
	if !slices.Equal(ix.outSig, o.outSig) || !slices.Equal(ix.inSig, o.inSig) {
		return false
	}
	for k, level := range ix.builtLevels() {
		if !slices.Equal(level, o.hopSig(k)) {
			return false
		}
	}
	return true
}

// PruneStats reports one Prune call: the candidate count walking in, how
// many centers each filter removed, and what the anchor check read.
type PruneStats struct {
	Before          int
	PrunedSignature int
	PrunedDegree    int
	PrunedAnchor    int
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
// returns the surviving prefix. All three filters are necessary conditions,
// applied cheapest first:
//
//   - Signature: a match of Q in Ĝ[v, r] puts every pattern label within r
//     undirected hops of v, so a pattern label bit missing from hop[r][v]
//     proves no match. Bloom folding only admits extra centers, never
//     drops a viable one.
//
//   - Label-pair: the center must itself match some pattern node u with
//     label(u) = label(v) (w ∈ Q(w) by Theorem 4.2's match definition — the
//     center anchors the ball), and dual simulation then requires v to have
//     a successor for every edge out of u and a predecessor for every edge
//     into it; ball adjacency is a subset of full-graph adjacency, so the
//     Bloom-folded labels of v's out- (in-) neighbors must cover those of
//     u's.
//
//   - Anchor: the same condition, exact and k = min(r, dQ) rounds deep. A
//     dual simulation on the ball is one on G, and every dual simulation on
//     G lies inside each round R_0 ⊇ R_1 ⊇ … of refinement from the label
//     candidates, so (u, v) in the ball's relation puts (u, v) in R_k:
//     every pattern edge (u, u') has an out-neighbor w of v with (u', w) in
//     R_{k-1}, every (u″, u) an in-neighbor likewise. The check unfolds
//     that from v, first fit. Any k is sound (Match+'s global filter is the
//     limit k → ∞); k ≤ r reads only adjacency rows the ball's BFS would
//     load next, and past dQ rounds the unfolding revisits pattern nodes
//     for little.
//
// Centers whose label matches no pattern node pass untouched (fail open);
// the caller's candidate selection should have excluded them already.
func (ix *Index) Prune(q *graph.Graph, radius int, centers []int32, st *PruneStats) []int32 {
	st.Before = len(centers)
	if len(centers) == 0 || q == nil || q.NumNodes() == 0 {
		return centers
	}

	// Pattern-side label sets, one entry per pattern node. Patterns are tiny,
	// so a small slice with linear scans beats a map.
	type labelReq struct {
		label         int32
		outSig, inSig uint64 // Bloom-folded labels of the node's out-/in-neighbors
	}
	var qsig uint64
	reqs := make([]labelReq, q.NumNodes())
	for u := range reqs {
		r := &reqs[u]
		r.label = q.Label(int32(u))
		qsig |= LabelBit(r.label)
		for _, w := range q.Out(int32(u)) {
			r.outSig |= LabelBit(q.Label(w))
		}
		for _, w := range q.In(int32(u)) {
			r.inSig |= LabelBit(q.Label(w))
		}
	}
	rounds, _ := graph.Diameter(q)
	if radius < rounds {
		rounds = radius
	}

	hop := ix.hopSig(radius)
	a := anchor{q: q, g: ix.g}
	w := 0
	for _, c := range centers {
		if hop != nil && qsig&^hop[c] != 0 {
			st.PrunedSignature++
			continue
		}
		// The center is kept by the first pattern node of its label it can
		// anchor; matched and paired tell which filter turned it away.
		matched, paired, ok := false, false, false
		clbl, out, in := ix.g.Label(c), ix.outSig[c], ix.inSig[c]
		a.budget = anchorBudget
		for u := range reqs {
			r := &reqs[u]
			if r.label != clbl {
				continue
			}
			matched = true
			if r.outSig&^out != 0 || r.inSig&^in != 0 {
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
	candidatesBefore.Add(int64(st.Before))
	prunedSignature.Add(int64(st.PrunedSignature))
	prunedDegree.Add(int64(st.PrunedDegree))
	prunedAnchor.Add(int64(st.PrunedAnchor))
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
