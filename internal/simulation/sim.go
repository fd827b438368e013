package simulation

import (
	"context"

	"repro/internal/graph"
)

// Simulation computes the maximum graph-simulation relation S for Q ≺ G
// (paper Section 2.2). The boolean reports whether G matches Q, i.e.
// whether every pattern node retains a candidate; when it is false the
// returned relation is the (empty-somewhere) fixpoint, which callers may
// still inspect.
//
// Runs in O((|Vq|+|Eq|)(|V|+|E|)) time via the HHK-style Refiner.
func Simulation(q, g *graph.Graph) (Relation, bool) {
	rel, ok, _ := refineByLabel(context.Background(), q, g, ChildOnly, nil)
	return rel, ok
}

// Dual computes the maximum dual-simulation relation for Q ≺D G (paper
// Section 2.2): simulation that preserves both child and parent
// relationships. Same complexity as Simulation.
func Dual(q, g *graph.Graph) (Relation, bool) {
	rel, ok, _ := refineByLabel(context.Background(), q, g, ChildParent, nil)
	return rel, ok
}

// DualIn is Dual for a serving path: the relation, counters and worklists
// come from sc (a nil sc allocates), so the result is owned by the scratch
// and valid until its next evaluation cycle, and the pass gives up with
// ctx's error soon after ctx is done.
func DualIn(ctx context.Context, q, g *graph.Graph, sc *Scratch) (Relation, bool, error) {
	return refineByLabel(ctx, q, g, ChildParent, sc)
}

// refineByLabel is the whole-graph pass behind Simulation, Dual and DualIn.
// g must carry neighbour-label signatures (graph.Graph.SigRow), as
// every graph but a BallScratch ball does.
func refineByLabel(ctx context.Context, q, g *graph.Graph, mode Mode, sc *Scratch) (Relation, bool, error) {
	rel := sc.Relation(q.NumNodes(), g.NumNodes())
	r := newRefiner(ctx, q, g, rel, mode, sc, true)
	r.seed()
	seeded := r.listed()
	r.sweep()
	kept := r.listed()
	r.count()
	r.SeedAll()
	ok := r.Run()
	if sc != nil {
		sc.stats.Seeded += seeded
		sc.stats.Kept += kept
		sc.stats.Rows += r.rows
	}
	return rel, ok, r.err
}

// DualWithin computes the maximum dual simulation contained in the given
// initial relation (which must itself be label-consistent). It is the entry
// point for the connectivity-pruning optimization, where candidates have
// already been intersected with the component of the ball center.
func DualWithin(q, g *graph.Graph, init Relation) (Relation, bool) {
	r := NewRefiner(q, g, init, ChildParent)
	r.SeedAll()
	ok := r.Run()
	return init, ok
}

// SimulationNaive is the textbook fixpoint for graph simulation: repeatedly
// delete candidates that miss a required child until nothing changes. It is
// the executable specification against which Simulation is property-tested;
// use Simulation in production code.
func SimulationNaive(q, g *graph.Graph) (Relation, bool) {
	return naiveFixpoint(q, g, InitByLabel(q, g), ChildOnly)
}

// DualNaive is the paper's procedure DualSim (Fig. 3, lines 1-12) verbatim:
// the fixpoint deletes candidates that miss a required child (lines 4-6) or
// a required parent (lines 7-9). Executable specification for Dual.
func DualNaive(q, g *graph.Graph) (Relation, bool) {
	return naiveFixpoint(q, g, InitByLabel(q, g), ChildParent)
}

// naiveFixpoint shrinks rel in place until every pair left is valid, and is
// also the specification of DualWithin from an arbitrary start.
func naiveFixpoint(q, g *graph.Graph, rel Relation, mode Mode) (Relation, bool) {
	for changed := true; changed; {
		changed = false
		for u := int32(0); u < int32(q.NumNodes()); u++ {
			for _, v := range rel[u].Slice() {
				if !naiveValid(q, g, rel, u, v, mode) {
					rel[u].Remove(v)
					changed = true
				}
			}
		}
	}
	return rel, rel.Total()
}

func naiveValid(q, g *graph.Graph, rel Relation, u, v int32, mode Mode) bool {
	for _, uc := range q.Out(u) {
		found := false
		for _, vc := range g.Out(v) {
			if rel[uc].Contains(vc) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if mode == ChildParent {
		for _, up := range q.In(u) {
			found := false
			for _, vp := range g.In(v) {
				if rel[up].Contains(vp) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}
