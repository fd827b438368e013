package simulation

import (
	"math"

	"repro/internal/graph"
)

// Scratch holds the reusable allocations of one evaluation at a time — a
// worker's current ball, or a request's pass over the whole graph: the
// candidate relation's node sets, the refiner's counter arena and worklists,
// and a small rotation of spare node sets. A scratch is NOT safe for
// concurrent use — internal/exec gives each worker, and each request's
// global pass, its own.
//
// Everything handed out by a scratch (the Relation from Relation, the
// Refiner from NewRefinerIn, spare sets) is owned by it and valid only until
// the next Relation call, which begins the next evaluation cycle. All entry
// points accept a nil *Scratch and then allocate fresh state, so one code
// path serves both the pooled hot loop and one-shot callers.
type Scratch struct {
	rel      Relation
	spare    []*graph.NodeSet
	spareLen int

	refiner Refiner
	arena   []int32
	queue   []int32 // Component's breadth-first queue

	// Reuse and work accounting (see Stats); missed marks the current cycle
	// counted.
	stats  ScratchStats
	missed bool
}

// ScratchStats is what a scratch has done since it was made.
type ScratchStats struct {
	// Evals counts evaluation cycles (Relation calls: one per ball
	// evaluation or global pass), Misses the cycles that had to grow the
	// relation's sets or the counter arena instead of running entirely on
	// reused storage.
	Evals, Misses int64
	// The whole-graph passes' work (DualIn): the pairs the seeding walk let
	// through, the pairs the sweep kept of them, and the adjacency rows the
	// sweep, the counting and the propagation tested or decoded.
	Seeded, Kept, Rows int64
}

// Stats returns the cumulative counts of this scratch. internal/exec folds
// them into the scratch_sim_* and scratch_global_* counters of the metrics
// registry when the scratch goes back to its pool.
func (s *Scratch) Stats() ScratchStats {
	if s == nil {
		return ScratchStats{}
	}
	return s.stats
}

// Relation returns an all-empty relation for nq pattern nodes over capacity
// data nodes, reusing pooled sets. It also begins a new evaluation cycle:
// spare sets handed out earlier are considered free again.
func (s *Scratch) Relation(nq, capacity int) Relation {
	if s == nil {
		return NewRelation(nq, capacity)
	}
	s.stats.Evals++
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

// Component returns a spare set holding the undirected connected component
// of start in the subgraph of g induced by member (graph.ComponentWithin),
// or nil when start is not a member. The breadth-first queue is the
// scratch's, so a warmed scratch allocates nothing.
func (s *Scratch) Component(g *graph.Graph, start int32, member *graph.NodeSet) *graph.NodeSet {
	if !member.Contains(start) {
		return nil
	}
	comp := s.SpareSet(g.NumNodes())
	if s == nil {
		graph.ComponentWithin(g, start, member, comp, nil)
		return comp
	}
	s.queue = graph.ComponentWithin(g, start, member, comp, s.queue)
	return comp
}

// Matched appends to dst, ascending and once each, the data nodes that the
// relation of the whole-graph pass last run on s (DualIn) matches to some
// pattern node — the node set of its match graph, as Relation.DataNodes
// has it. It merges the pass's candidate lists, skipping the pairs the
// propagation removed, and so reads a few candidates per pattern node where
// DataNodes reads |V| bits.
func (s *Scratch) Matched(dst []int32) []int32 {
	r := &s.refiner
	pos := r.candPos
	clear(pos)
	for {
		next := int32(math.MaxInt32)
		for x := range pos {
			list, set := r.cands(int32(x)), r.rel[x]
			for int(pos[x]) < len(list) && !set.Contains(list[pos[x]]) {
				pos[x]++
			}
			if int(pos[x]) < len(list) {
				next = min(next, list[pos[x]])
			}
		}
		if next == math.MaxInt32 {
			return dst
		}
		dst = append(dst, next)
		for x := range pos {
			if list := r.cands(int32(x)); int(pos[x]) < len(list) && list[pos[x]] == next {
				pos[x]++
			}
		}
	}
}

// Forget lets go of what the last evaluation read — its graphs, pattern and
// context — and keeps the storage.
func (s *Scratch) Forget() {
	r := &s.refiner
	r.q, r.g, r.rank, r.out, r.in, r.ctx = nil, nil, nil, graph.CSR{}, graph.CSR{}, nil
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
		s.stats.Misses++
	}
}
