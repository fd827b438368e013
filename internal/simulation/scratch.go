package simulation

import "repro/internal/graph"

// Scratch holds the reusable allocations of one evaluation at a time — a
// worker's current ball, or a request's pass over the whole graph: the
// candidate relation's node sets, the refiner's counter arena and worklists,
// and a small rotation of spare node sets. A scratch is NOT safe for
// concurrent use — internal/exec gives each worker, and each request's
// global pass, its own.
//
// Everything handed out by a scratch (the Relation from Relation or
// InitByLabelIn, the Refiner from NewRefinerIn, spare sets) is owned by it
// and valid only until the next Relation/InitByLabelIn call, which begins
// the next evaluation cycle. All entry points accept a nil *Scratch and then
// allocate fresh state, so one code path serves both the pooled hot loop and
// one-shot callers.
type Scratch struct {
	rel      Relation
	spare    []*graph.NodeSet
	spareLen int

	refiner Refiner
	arena   []int32

	// Reuse accounting (see Stats); missed marks the current cycle counted.
	evals  int64
	misses int64
	missed bool
}

// Stats returns the cumulative evaluation-cycle and arena-miss counts of
// this scratch: evals counts Relation calls (one per ball evaluation or
// global pass), misses counts cycles that had to grow the relation's sets or
// the counter arena instead of running entirely on reused storage.
// internal/exec folds these into the scratch_sim_* counters of the metrics
// registry when the scratch goes back to its pool.
func (s *Scratch) Stats() (evals, misses int64) {
	if s == nil {
		return 0, 0
	}
	return s.evals, s.misses
}

// Relation returns an all-empty relation for nq pattern nodes over capacity
// data nodes, reusing pooled sets. It also begins a new evaluation cycle:
// spare sets handed out earlier are considered free again.
func (s *Scratch) Relation(nq, capacity int) Relation {
	if s == nil {
		return NewRelation(nq, capacity)
	}
	s.evals++
	s.spareLen = 0
	s.missed = false
	for len(s.rel) < nq {
		s.rel = append(s.rel, graph.NewNodeSet(0))
	}
	rel := s.rel[:nq]
	for _, set := range rel {
		if set.Reset(capacity) {
			s.miss()
		}
	}
	return rel
}

// SpareSet returns an empty set with the given capacity from the scratch's
// rotation (connectivity pruning needs two per ball). Sets stay valid until
// the next Relation call.
func (s *Scratch) SpareSet(capacity int) *graph.NodeSet {
	if s == nil {
		return graph.NewNodeSet(capacity)
	}
	if s.spareLen == len(s.spare) {
		s.spare = append(s.spare, graph.NewNodeSet(0))
	}
	set := s.spare[s.spareLen]
	s.spareLen++
	if set.Reset(capacity) {
		s.miss()
	}
	return set
}

// InitByLabelIn is InitByLabel into scratch-owned storage.
func InitByLabelIn(q, g *graph.Graph, s *Scratch) Relation {
	rel := s.Relation(q.NumNodes(), g.NumNodes())
	for u := int32(0); u < int32(q.NumNodes()); u++ {
		for _, v := range g.NodesWithLabel(q.Label(u)) {
			rel[u].Add(v)
		}
	}
	return rel
}

// ints returns n int32s of unspecified content — the refiner's tables and
// counter rows, every slot of which it writes before reading — from the
// scratch arena or, with a nil scratch, freshly allocated.
func (s *Scratch) ints(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	if cap(s.arena) < n {
		s.arena = make([]int32, n)
		s.miss()
	}
	return s.arena[:n]
}

// miss counts the current cycle as one that grew storage, once.
func (s *Scratch) miss() {
	if !s.missed {
		s.missed = true
		s.misses++
	}
}
