package simulation

import "repro/internal/graph"

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

// Refiner computes maximum simulation relations by counter-based removal
// propagation, the strategy of Henzinger, Henzinger & Kopke (FOCS 1995)
// adapted to pattern-vs-data matching. Counters track, for every pattern
// node u and data node w,
//
//	cntSucc[u][w] = |succ_g(w) ∩ rel[u]|
//	cntPred[u][w] = |pred_g(w) ∩ rel[u]|   (ChildParent only)
//
// so that v ∈ rel[x] remains valid iff cntSucc[u][v] > 0 for every pattern
// edge (x,u) and cntPred[p][v] > 0 for every pattern edge (p,x). Each data
// edge is touched O(1) times per pattern node during the whole run, giving
// the paper's O((|Vq|+|Eq|)(|V|+|E|)) bound for DualSim.
type Refiner struct {
	q, g    *graph.Graph
	mode    Mode
	rel     Relation
	cntSucc [][]int32
	cntPred [][]int32
	queue   []Pair
	// removed records every pair removed during Run, in removal order;
	// consumers (dualFilter statistics, tests) may inspect it.
	removed []Pair
	// bad is SeedAll's collection buffer, kept so a scratch-owned refiner
	// seeds without allocating.
	bad []int32
}

// NewRefiner prepares a refiner that will shrink rel in place to the unique
// maximum simulation (per mode) contained in rel. rel must not be mutated
// by the caller while the refiner is alive.
func NewRefiner(q, g *graph.Graph, rel Relation, mode Mode) *Refiner {
	return NewRefinerIn(q, g, rel, mode, nil)
}

// NewRefinerIn is NewRefiner with the counter matrices and worklists carved
// out of sc instead of freshly allocated. The returned refiner is owned by
// the scratch (valid until its next evaluation cycle); a nil sc allocates as
// NewRefiner does.
func NewRefinerIn(q, g *graph.Graph, rel Relation, mode Mode, sc *Scratch) *Refiner {
	var r *Refiner
	if sc != nil {
		sc.refiner.q, sc.refiner.g, sc.refiner.mode, sc.refiner.rel = q, g, mode, rel
		sc.refiner.queue = sc.refiner.queue[:0]
		sc.refiner.removed = sc.refiner.removed[:0]
		r = &sc.refiner
	} else {
		r = &Refiner{q: q, g: g, mode: mode, rel: rel}
	}
	nq, ng := q.NumNodes(), g.NumNodes()
	r.cntSucc, r.cntPred = sc.counters(nq, ng, mode == ChildParent)
	for u := 0; u < nq; u++ {
		rel[u].ForEach(func(v int32) {
			for _, w := range g.In(v) {
				r.cntSucc[u][w]++
			}
		})
	}
	if mode == ChildParent {
		for u := 0; u < nq; u++ {
			rel[u].ForEach(func(v int32) {
				for _, w := range g.Out(v) {
					r.cntPred[u][w]++
				}
			})
		}
	}
	return r
}

// valid checks the simulation conditions for (u,v) against the current
// counters.
func (r *Refiner) valid(u, v int32) bool {
	for _, c := range r.q.Out(u) {
		if r.cntSucc[c][v] == 0 {
			return false
		}
	}
	if r.mode == ChildParent {
		for _, p := range r.q.In(u) {
			if r.cntPred[p][v] == 0 {
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
	p := Pair{Q: u, G: v}
	r.queue = append(r.queue, p)
	r.removed = append(r.removed, p)
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
	bad := r.bad
	for u := int32(0); u < int32(r.q.NumNodes()); u++ {
		// Collect first: Remove mutates rel[u] during iteration otherwise.
		bad = bad[:0]
		r.rel[u].ForEach(func(v int32) {
			if !r.valid(u, v) {
				bad = append(bad, v)
			}
		})
		for _, v := range bad {
			r.Remove(u, v)
		}
	}
	r.bad = bad
}

// Run propagates all scheduled removals to the fixpoint and reports whether
// the refined relation is still total (every pattern node keeps at least
// one candidate). The relation passed to NewRefiner now holds the unique
// maximum simulation of the requested mode contained in the original.
func (r *Refiner) Run() bool {
	for len(r.queue) > 0 {
		p := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		u, v := p.Q, p.G
		// v left rel[u]: predecessors of v lose a witness for pattern
		// edges (x,u).
		for _, w := range r.g.In(v) {
			r.cntSucc[u][w]--
			if r.cntSucc[u][w] == 0 {
				for _, x := range r.q.In(u) {
					if r.rel[x].Contains(w) {
						r.Remove(x, w)
					}
				}
			}
		}
		if r.mode == ChildParent {
			// Successors of v lose a parent witness for pattern edges (u,c).
			for _, w := range r.g.Out(v) {
				r.cntPred[u][w]--
				if r.cntPred[u][w] == 0 {
					for _, c := range r.q.Out(u) {
						if r.rel[c].Contains(w) {
							r.Remove(c, w)
						}
					}
				}
			}
		}
	}
	return r.rel.Total()
}

// Removed returns every pair removed so far, in removal order.
func (r *Refiner) Removed() []Pair { return r.removed }

// Relation returns the relation being refined.
func (r *Refiner) Relation() Relation { return r.rel }
