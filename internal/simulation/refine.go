package simulation

import (
	"context"
	"slices"

	"repro/internal/graph"
)

// Mode selects which directions a refinement enforces.
type Mode int

const (
	// ChildOnly enforces the successor condition of plain graph simulation:
	// v ∈ rel[u] requires, for every pattern edge (u,u'), a successor of v
	// in rel[u'].
	ChildOnly Mode = iota
	// ChildParent additionally enforces the predecessor condition of dual
	// simulation: for every pattern edge (u2,u), a predecessor of v in
	// rel[u2].
	ChildParent
)

// pollEvery is how many units of work — adjacency entries read, pairs
// checked — a refinement does between two looks at its context: tens of
// microseconds.
const pollEvery = 4096

// Refiner computes maximum simulation relations by counter-based removal
// propagation, the strategy of Henzinger, Henzinger & Kopke (FOCS 1995)
// adapted to pattern-vs-data matching. It keeps one counter per pattern edge
// and candidate of an endpoint: for the pattern edge e = (x,u),
//
//	succ_e[v] = |succ_g(v) ∩ rel[u]|   for v ∈ rel[x]
//	pred_e[w] = |pred_g(w) ∩ rel[x]|   for w ∈ rel[u]   (ChildParent only)
//
// so that v ∈ rel[x] remains valid iff succ_e[v] > 0 for every pattern edge
// e out of x and pred_e[v] > 0 for every pattern edge e into x. A candidate
// of x carries x's label, so a row has one slot per node of that label and a
// node's slot is its rank in the label row (graph.LabelRanks): the counters
// number Σ_(x,u)∈Eq (|cand(x)| + |cand(u)|), and counting, seeding and
// propagation read the adjacency of candidates only. Slots of nodes outside
// rel are never written or read, so nothing is zeroed. Each data edge is
// still touched O(1) times per pattern edge during the whole run — the
// paper's O((|Vq|+|Eq|)(|V|+|E|)) bound for DualSim is the worst case, met
// when every node carries a pattern label.
type Refiner struct {
	q, g    *graph.Graph
	mode    Mode
	rel     Relation
	rank    []int32   // g.LabelRanks()
	out, in graph.CSR // g.Rows()

	// Pattern edges are numbered in q.Edges order: those out of x are
	// outBase[x]..outBase[x+1], in q.Out(x) order; the in-slots
	// inBase[u]..inBase[u+1] stand for the edges into u, in q.In(u) order.
	// qOut and qIn hold q's rows, decoded once: x's successors are
	// qOut[outBase[x]:outBase[x+1]], u's predecessors
	// qIn[inBase[u]:inBase[u+1]]. succOut/predOut give an edge's two row
	// offsets into cnt by its number, succIn/predIn the same offsets by
	// in-slot. All eight are windows of one arena with cnt.
	outBase, inBase  []int32
	qOut, qIn        []int32
	succOut, predOut []int32
	succIn, predIn   []int32
	cnt              []int32

	// A whole-graph pass also keeps each pattern node's candidates as an
	// ascending list, so that no phase walks a |V|-bit set to find them:
	// x's is cand[candAt[x]:candAt[x]+candN[x]], a window of the arena as
	// long as x's label row. It holds rel[x] from seed through SeedAll; Run
	// removes pairs from the sets only. candPos is the sweep's visited mark
	// per pattern node, then Scratch.Matched's cursor per list; order is the
	// sweep's breadth-first queue. All nil on the ball path.
	candAt, candN, candPos []int32
	order, cand            []int32

	queue   []Pair
	row     []int32 // the data row being read, decoded
	removed int     // pairs taken out of rel so far
	rows    int64   // adjacency rows tested or decoded so far

	// ctx is polled every pollEvery units of work; err is what it said when
	// it ended the refinement.
	ctx    context.Context
	budget int
	err    error
}

// NewRefiner prepares a refiner that will shrink rel in place to the unique
// maximum simulation (per mode) contained in rel, which must be
// label-consistent: rel[u] holds only nodes carrying u's label. rel must not
// be mutated by the caller while the refiner is alive.
func NewRefiner(q, g *graph.Graph, rel Relation, mode Mode) *Refiner {
	return NewRefinerIn(q, g, rel, mode, nil)
}

// NewRefinerIn is NewRefiner with the counters and worklists carved out of sc
// instead of freshly allocated. The returned refiner is owned by the scratch
// (valid until its next evaluation cycle); a nil sc allocates as NewRefiner
// does.
func NewRefinerIn(q, g *graph.Graph, rel Relation, mode Mode, sc *Scratch) *Refiner {
	r := newRefiner(context.Background(), q, g, rel, mode, sc, false)
	r.count()
	return r
}

// newRefiner lays the counter rows out, and with lists the candidate lists
// seed fills; count fills the counters. Every pass over the relation gives
// up once ctx is done, leaving ctx's error in err and the relation partly
// refined.
func newRefiner(ctx context.Context, q, g *graph.Graph, rel Relation, mode Mode, sc *Scratch, lists bool) *Refiner {
	var r *Refiner
	if sc != nil {
		r = &sc.refiner
		*r = Refiner{queue: r.queue[:0], row: r.row[:0]}
	} else {
		r = new(Refiner)
	}
	r.q, r.g, r.rel, r.mode, r.rank = q, g, rel, mode, g.LabelRanks()
	r.out, r.in = g.Rows()
	r.ctx, r.budget = ctx, pollEvery
	dual := mode == ChildParent

	nq, ne := q.NumNodes(), q.NumEdges()
	row := func(x int) int32 { return int32(len(g.NodesWithLabel(q.Label(int32(x))))) }
	need := 2*(nq+1) + 6*ne
	for x := 0; x < nq; x++ {
		edges := q.OutDegree(int32(x))
		if dual {
			edges += q.InDegree(int32(x))
		}
		need += int(row(x)) * edges
		if lists {
			need += int(row(x)) + 4
		}
	}
	arena := sc.ints(need)
	carve := func(n int) []int32 {
		w := arena[:n:n]
		arena = arena[n:]
		return w
	}
	r.outBase, r.inBase = carve(nq+1), carve(nq+1)
	r.qOut, r.qIn = carve(ne)[:0], carve(ne)[:0]
	r.succOut, r.predOut = carve(ne), carve(ne)
	r.succIn, r.predIn = carve(ne), carve(ne)
	if lists {
		r.candAt, r.candN, r.candPos, r.order = carve(nq), carve(nq), carve(nq), carve(nq)
		n := int32(0)
		for x := 0; x < nq; x++ {
			r.candAt[x], r.candN[x] = n, 0
			n += row(x)
		}
		r.cand = carve(int(n))
	}
	r.cnt = arena

	for x := 0; x < nq; x++ {
		r.outBase[x], r.inBase[x] = int32(len(r.qOut)), int32(len(r.qIn))
		r.qOut, r.qIn = q.AppendOut(r.qOut, int32(x)), q.AppendIn(r.qIn, int32(x))
	}
	r.outBase[nq], r.inBase[nq] = int32(ne), int32(ne)

	off := int32(0)
	for x := 0; x < nq; x++ {
		rx := row(x)
		for e := r.outBase[x]; e < r.outBase[x+1]; e++ {
			r.succOut[e] = off
			off += rx
		}
	}
	for u := 0; u < nq; u++ {
		ru := row(u)
		for k := r.inBase[u]; k < r.inBase[u+1]; k++ {
			x := r.qIn[k]
			j, _ := slices.BinarySearch(r.qOut[r.outBase[x]:r.outBase[x+1]], int32(u))
			e := r.outBase[x] + int32(j)
			r.succIn[k] = r.succOut[e]
			if dual {
				r.predIn[k], r.predOut[e] = off, off
				off += ru
			}
		}
	}
	return r
}

// ends returns the pattern nodes that v ∈ rel[x] needs a successor in
// (outs) and a predecessor in (ins).
func (r *Refiner) ends(x int32) (outs, ins []int32) {
	if r.mode == ChildParent {
		ins = r.qIns(x)
	}
	return r.qOuts(x), ins
}

// qOuts and qIns return the successors and predecessors of pattern node x.
func (r *Refiner) qOuts(x int32) []int32 { return r.qOut[r.outBase[x]:r.outBase[x+1]] }
func (r *Refiner) qIns(x int32) []int32  { return r.qIn[r.inBase[x]:r.inBase[x+1]] }

// seed fills the empty relation of a whole-graph pass, and the candidate
// lists beside it, with the label candidates of each pattern node x whose
// neighbour-label signature covers the labels of x's pattern successors and,
// under ChildParent, predecessors. That loses nothing: a candidate missing a
// bit has no neighbour of some label x needs one of, so no witness for that
// pattern edge, and the refinement would drop it. On a graph of many labels
// it is most of them, and the check reads one 16-byte word in label-row
// order where the sweep would load two adjacency rows at random. The walk is
// charged to the poll budget.
func (r *Refiner) seed() {
	for x := int32(0); x < int32(r.q.NumNodes()); x++ {
		need := r.q.NeighbourSig(x)
		if r.mode != ChildParent {
			need.In = 0
		}
		lbl, set := r.q.Label(x), r.rel[x]
		nodes, sigs := r.g.NodesWithLabel(lbl), r.g.SigRow(lbl)
		list := r.cand[r.candAt[x]:][:0]
		lo := 0 // pollEvery is a multiple of graph.SigPageSize
		for _, page := range sigs {
			if lo%pollEvery == 0 && r.spent(min(pollEvery, len(nodes)-lo)) {
				return
			}
			for i, s := range page {
				if s.Covers(need) {
					set.Add(nodes[lo+i])
					list = append(list, nodes[lo+i])
				}
			}
			lo += len(page)
			r.candN[x] = int32(len(list))
		}
	}
}

// cands returns the candidate list of pattern node x.
func (r *Refiner) cands(x int32) []int32 {
	return r.cand[r.candAt[x] : r.candAt[x]+r.candN[x]]
}

// sweepBatch is how many candidates a pull takes at a time: it reads their
// row lengths first, so the loads of their rows' first bytes overlap instead
// of each stalling the test that needs it.
const sweepBatch = 32

// sweep drops, in one pass and before any counter exists, pairs that have
// no witness at all for some pattern edge, and compacts the candidate lists
// to the pairs it keeps. On a large graph that is most of the seeded
// candidates, and finding them costs a fraction of counting them and then
// walking their adjacency a second time to propagate their removal.
//
// It explores q one connected component at a time, from the pattern node
// with the fewest seeded candidates, which it pulls (tests each candidate's
// rows). It then walks q's edges breadth-first: a node x reached from the
// filtered node p takes a push from p's survivors where that pays, and a
// pull for the pattern edges the push did not enforce (reach). A label row
// seeds hundreds of candidates where the fixpoint keeps a handful, so the
// rows of p's few survivors name x's few valid candidates, and the
// candidates no survivor names are never loaded.
//
// Invalid pairs may go in any order — the maximum simulation inside rel is
// unique — so the fixpoint is unchanged.
func (r *Refiner) sweep() {
	seen := r.candPos // the visited marks; Scratch.Matched's cursor afterwards
	clear(seen)
	for {
		root := int32(-1)
		for x := range seen {
			if seen[x] == 0 && (root < 0 || r.candN[x] < r.candN[root]) {
				root = int32(x)
			}
		}
		if root < 0 || !r.pull(root, -1, -1) {
			return
		}
		seen[root] = 1
		queue := append(r.order[:0], root)
		for i := 0; i < len(queue); i++ {
			p := queue[i]
			for _, xs := range [2][]int32{r.qOuts(p), r.qIns(p)} {
				for _, x := range xs {
					if seen[x] != 0 {
						continue
					}
					seen[x] = 1
					queue = append(queue, x)
					if !r.reach(p, x) {
						return
					}
				}
			}
		}
	}
}

// reach filters pattern node x, reached from p, whose candidates the sweep
// has already filtered, and reports false when the refinement has to stop.
// When p keeps fewer candidates than x has and x needs a neighbour in
// rel[p] — a successor along x→p in both modes, a predecessor along p→x
// under ChildParent only — it pushes: x keeps the candidates that the rows
// of p's survivors name. Then it pulls x for its other pattern edges.
// Otherwise it pulls x for all of them. Under ChildOnly a push along p→x
// would drop x's candidates without a parent in rel[p], which plain
// simulation keeps.
func (r *Refiner) reach(p, x int32) bool {
	skipOut, skipIn := int32(-1), int32(-1)
	if r.candN[p] < r.candN[x] {
		outs, ins := r.ends(x)
		switch {
		case slices.Contains(outs, p):
			skipOut = p
			if !r.push(r.in, p, x) {
				return false
			}
		case slices.Contains(ins, p):
			skipIn = p
			if !r.push(r.out, p, x) {
				return false
			}
		}
	}
	return r.pull(x, skipOut, skipIn)
}

// push keeps of x's candidates those that some survivor of p lists in its
// adj row, and reports false when the refinement has to stop instead. It
// decodes each survivor's row whole and clears every target it names in
// rel[x], so that afterwards the listed candidates still in rel[x] are the
// ones no survivor named: compacting x's list, in list order, removes those
// and puts the named ones back. The rows and the compaction's walk are
// charged to the poll budget. A stop in between leaves rel[x] with its bits
// flipped; a cancelled pass's relation is dead anyway.
func (r *Refiner) push(adj graph.CSR, p, x int32) bool {
	set, list := r.rel[x], r.cands(x)
	for _, s := range r.cands(p) {
		if r.spent(adj.Degree(s)) {
			return false
		}
		r.rows++
		r.row = adj.AppendRow(r.row[:0], s)
		for _, w := range r.row {
			set.Remove(w)
		}
	}
	kept := 0
	for i, v := range list {
		if i%pollEvery == 0 && r.spent(min(pollEvery, len(list)-i)) {
			return false
		}
		if set.Remove(v) {
			r.removed++
			continue
		}
		set.Add(v)
		list[kept] = v
		kept++
	}
	r.candN[x] = int32(kept)
	return true
}

// pull tests each of x's candidates for a witness of every pattern edge x
// has but the ones to skipOut (a successor) and skipIn (a predecessor) — a
// push enforced those; -1 skips none — and removes the candidates that miss
// one. It reads a candidate's out-row only when x has such successors and
// its in-row only when it has such predecessors and the out-row held,
// charges the poll budget for the rows it tests, and reports false when the
// refinement has to stop.
func (r *Refiner) pull(x, skipOut, skipIn int32) bool {
	outs, ins := r.ends(x)
	nOut, nIn := len(outs), len(ins)
	if slices.Contains(outs, skipOut) {
		nOut--
	}
	if slices.Contains(ins, skipIn) {
		nIn--
	}
	if nOut+nIn == 0 {
		return true // nothing to witness
	}
	var outDeg, inDeg [sweepBatch]int
	list, kept := r.cands(x), 0
	for lo := 0; lo < len(list); lo += sweepBatch {
		batch := list[lo:min(lo+sweepBatch, len(list))]
		for i, v := range batch {
			if nOut > 0 {
				outDeg[i] = r.out.Degree(v)
			}
			if nIn > 0 {
				inDeg[i] = r.in.Degree(v)
			}
		}
		for i, v := range batch {
			ok := true
			if nOut > 0 {
				if r.spent(nOut * outDeg[i]) {
					return false
				}
				r.rows++
				ok = r.witnessed(r.out, v, outs, skipOut)
			}
			if ok && nIn > 0 {
				if r.spent(nIn * inDeg[i]) {
					return false
				}
				r.rows++
				ok = r.witnessed(r.in, v, ins, skipIn)
			}
			if ok {
				list[kept] = v
				kept++
			} else {
				r.rel[x].Remove(v)
				r.removed++
			}
		}
	}
	r.candN[x] = int32(kept)
	return true
}

// witnessed reports whether row v of adj holds a member of rel[u] for every
// u in us but skip. Each test decodes the row only up to its first witness.
func (r *Refiner) witnessed(adj graph.CSR, v int32, us []int32, skip int32) bool {
	for _, u := range us {
		if u != skip && !adj.Intersects(v, r.rel[u]) {
			return false
		}
	}
	return true
}

// count fills the counter rows for the pairs now in rel, walking the
// candidate lists when the pass keeps them.
func (r *Refiner) count() {
	for x := int32(0); x < int32(r.q.NumNodes()); x++ {
		if r.cand != nil {
			for _, v := range r.cands(x) {
				if !r.countPair(x, v) {
					return
				}
			}
			continue
		}
		for v := r.rel[x].Next(0); v >= 0; v = r.rel[x].Next(v + 1) {
			if !r.countPair(x, v) {
				return
			}
		}
	}
}

// countPair fills the counters of (x,v), charges the entries it read, and
// reports false when the refinement has to stop. The charge follows the
// rows it decoded, so no row is sized before it is read.
func (r *Refiner) countPair(x, v int32) bool {
	outs, ins := r.ends(x)
	rv := r.rank[v]
	work := 0
	if len(outs) > 0 {
		r.rows++
		r.row = r.out.AppendRow(r.row[:0], v)
		work += len(outs) * len(r.row)
		for j, u := range outs {
			r.cnt[r.succOut[r.outBase[x]+int32(j)]+rv] = countIn(r.row, r.rel[u])
		}
	}
	if len(ins) > 0 {
		r.rows++
		r.row = r.in.AppendRow(r.row[:0], v)
		work += len(ins) * len(r.row)
		for j, p := range ins {
			r.cnt[r.predIn[r.inBase[x]+int32(j)]+rv] = countIn(r.row, r.rel[p])
		}
	}
	return !r.spent(work)
}

// countIn returns how many of row are members of set.
func countIn(row []int32, set *graph.NodeSet) int32 {
	n := int32(0)
	for _, w := range row {
		if set.Contains(w) {
			n++
		}
	}
	return n
}

// spent charges n units of work against the polling budget and reports
// whether the refinement has to stop because its context is done.
func (r *Refiner) spent(n int) bool {
	r.budget -= n + 1
	return r.budget <= 0 && r.poll()
}

// poll looks at the context. A live one buys the next pollEvery units; a
// dead one leaves the budget spent, so every later charge ends up here and
// stops its pass as well.
func (r *Refiner) poll() bool {
	if r.err == nil {
		r.err = r.ctx.Err()
	}
	if r.err != nil {
		return true
	}
	r.budget = pollEvery
	return false
}

// valid checks the simulation conditions for (u,v) against the current
// counters.
func (r *Refiner) valid(u, v int32) bool {
	rv := r.rank[v]
	for e := r.outBase[u]; e < r.outBase[u+1]; e++ {
		if r.cnt[r.succOut[e]+rv] == 0 {
			return false
		}
	}
	if r.mode == ChildParent {
		for k := r.inBase[u]; k < r.inBase[u+1]; k++ {
			if r.cnt[r.predIn[k]+rv] == 0 {
				return false
			}
		}
	}
	return true
}

// Remove deletes (u,v) from the relation and schedules propagation. It is
// a no-op when the pair is already gone.
func (r *Refiner) Remove(u, v int32) {
	if !r.rel[u].Remove(v) {
		return
	}
	r.queue = append(r.queue, Pair{Q: u, G: v})
	r.removed++
}

// EnqueueSuspect re-checks a pair and removes it when invalid. Used by
// dualFilter to seed refinement from the border nodes of a ball
// (Proposition 5).
func (r *Refiner) EnqueueSuspect(u, v int32) {
	if r.rel[u].Contains(v) && !r.valid(u, v) {
		r.Remove(u, v)
	}
}

// SeedAll re-checks every pair in the relation, seeding the full fixpoint
// computation used by Simulation and Dual.
func (r *Refiner) SeedAll() {
	for u := int32(0); u < int32(r.q.NumNodes()); u++ {
		if r.cand != nil {
			for _, v := range r.cands(u) {
				if !r.recheck(u, v) {
					return
				}
			}
			continue
		}
		for v := r.rel[u].Next(0); v >= 0; v = r.rel[u].Next(v + 1) {
			if !r.recheck(u, v) {
				return
			}
		}
	}
}

// recheck removes (u,v) when invalid, and reports false when the refinement
// has to stop instead.
func (r *Refiner) recheck(u, v int32) bool {
	if r.spent(0) {
		return false
	}
	if !r.valid(u, v) {
		r.Remove(u, v)
	}
	return true
}

// Run propagates all scheduled removals to the fixpoint and reports whether
// the refined relation is still total (every pattern node keeps at least
// one candidate). The relation passed to NewRefiner now holds the unique
// maximum simulation of the requested mode contained in the original. When
// the refiner's context ended first, Run reports false.
func (r *Refiner) Run() bool {
	for len(r.queue) > 0 {
		p := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		u, v := p.Q, p.G
		if r.spent(r.out.Degree(v) + r.in.Degree(v)) {
			break
		}
		// v left rel[u]: a predecessor of v that is a candidate of x loses
		// a witness for the pattern edge (x,u).
		if ins := r.qIns(u); len(ins) > 0 {
			rows := r.succIn[r.inBase[u]:]
			r.rows++
			r.row = r.in.AppendRow(r.row[:0], v)
			for _, w := range r.row {
				for j, x := range ins {
					r.lost(rows[j], x, w)
				}
			}
		}
		if r.mode != ChildParent {
			continue
		}
		// And a successor of v that is a candidate of c loses a parent
		// witness for the pattern edge (u,c).
		if outs := r.qOuts(u); len(outs) > 0 {
			rows := r.predOut[r.outBase[u]:]
			r.rows++
			r.row = r.out.AppendRow(r.row[:0], v)
			for _, w := range r.row {
				for j, c := range outs {
					r.lost(rows[j], c, w)
				}
			}
		}
	}
	return r.err == nil && r.rel.Total()
}

// lost takes one witness away from candidate w of pattern node x in the
// counter row at offset row, and removes (x,w) when that was its last. A
// node outside rel[x] has no live slot: its counters are not kept.
func (r *Refiner) lost(row, x, w int32) {
	if !r.rel[x].Contains(w) {
		return
	}
	c := &r.cnt[row+r.rank[w]]
	if *c--; *c == 0 {
		r.Remove(x, w)
	}
}

// Removed returns how many pairs the refiner has taken out of the relation.
func (r *Refiner) Removed() int { return r.removed }

// listed returns how many candidates the lists hold.
func (r *Refiner) listed() int64 {
	n := int64(0)
	for _, c := range r.candN {
		n += int64(c)
	}
	return n
}
