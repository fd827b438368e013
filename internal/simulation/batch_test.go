package simulation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/generator"
	"repro/internal/graph"
)

// batchPair builds the pattern D→A→B→C and a data graph whose A row seeds
// exactly k candidates for the pattern's A node, interleaved with A nodes
// the signature gate drops (no edges at all). About half of the seeded ones
// point at a B node without a C successor, so the sweep removes them and
// compacts the list around them.
func batchPair(k int, rng *rand.Rand) (q, g *graph.Graph) {
	labels := graph.NewLabels()
	qb := graph.NewBuilder(labels)
	for _, l := range []string{"D", "A", "B", "C"} {
		qb.AddNode(l)
	}
	for i := int32(1); i < 4; i++ {
		_ = qb.AddEdge(i-1, i)
	}
	gb := graph.NewBuilder(labels)
	d, c := gb.AddNode("D"), gb.AddNode("C")
	var good, bad []int32
	for i := 0; i < 3; i++ {
		b := gb.AddNode("B")
		_ = gb.AddEdge(b, c)
		good = append(good, b)
		bad = append(bad, gb.AddNode("B"))
	}
	for i := 0; i < k; i++ {
		gb.AddNode("A") // no neighbour: the gate drops it
		a := gb.AddNode("A")
		_ = gb.AddEdge(d, a)
		bs := good
		if rng.Intn(2) == 0 {
			bs = bad
		}
		_ = gb.AddEdge(a, bs[rng.Intn(len(bs))])
	}
	return qb.Build(), gb.Build()
}

// checkAgainstNaive compares Simulation and Dual with the paper's fixpoints
// on one pair, the pooled pass of each mode on sc (DualIn under
// ChildParent) with them, and the matched nodes a served query reads off the
// pass (Scratch.Matched) with the relation's node set.
func checkAgainstNaive(t *testing.T, name string, q, g *graph.Graph, sc *Scratch) {
	t.Helper()
	for _, m := range []struct {
		mode         Mode
		fresh, naive func(q, g *graph.Graph) (Relation, bool)
	}{{ChildOnly, Simulation, SimulationNaive}, {ChildParent, Dual, DualNaive}} {
		nRel, nOK := m.naive(q, g)
		if eRel, eOK := m.fresh(q, g); eOK != nOK || !eRel.Equal(nRel) {
			t.Fatalf("%s, mode %d: fresh pass %v (%v), naive fixpoint %v (%v)", name, m.mode, eRel, eOK, nRel, nOK)
		}
		var rel Relation
		var ok bool
		var err error
		if m.mode == ChildParent {
			rel, ok, err = DualIn(context.Background(), q, g, sc)
		} else {
			rel, ok, err = refineByLabel(context.Background(), q, g, m.mode, sc)
		}
		if err != nil || ok != nOK || !rel.Equal(nRel) {
			t.Fatalf("%s, mode %d: pooled pass %v (%v, %v), naive fixpoint %v (%v)", name, m.mode, rel, ok, err, nRel, nOK)
		}
		if got, want := sc.Matched(nil), rel.DataNodes(g.NumNodes()).Slice(); !slices.Equal(got, want) {
			t.Fatalf("%s, mode %d: Matched %v, the relation's nodes %v", name, m.mode, got, want)
		}
	}
}

// TestSweepBatchBoundaries: a pull takes candidates sweepBatch at a time
// and compacts each list to its survivors. On lists that end just before,
// on and just after a batch boundary — the pattern's A node, which the
// sweep reaches from D's single candidate and pulls for its edge to B
// (after a push from D once it has more candidates than D) — and on random
// graphs of 1–16 labels whose label rows span several batches, the pass
// computes what the paper's fixpoints compute, and a pass cancelled at any
// of its polls reports context.Canceled.
func TestSweepBatchBoundaries(t *testing.T) {
	if sweepBatch != 32 {
		t.Fatalf("the boundary sizes below assume batches of 32, not %d", sweepBatch)
	}
	rng := rand.New(rand.NewSource(1))
	var sc Scratch
	for _, k := range []int{0, 1, 31, 32, 33, 64, 65} {
		q, g := batchPair(k, rng)
		rel := sc.Relation(q.NumNodes(), g.NumNodes())
		r := newRefiner(context.Background(), q, g, rel, ChildParent, &sc, true)
		r.seed()
		if n := len(r.cands(1)); n != k {
			t.Fatalf("k=%d: the A row seeded %d candidates", k, n)
		}
		checkAgainstNaive(t, fmt.Sprintf("k=%d", k), q, g, &sc)
	}

	cancels := 0
	for i := 0; i < 24; i++ {
		nlabels := 1 + i%16
		g := generator.Synthetic(300+rng.Intn(1500), 1.2, nlabels, int64(i))
		var q *graph.Graph
		if i%2 == 0 {
			q = generator.SamplePattern(g, generator.PatternOptions{Nodes: 2 + rng.Intn(4), Alpha: 1.2, Seed: int64(i)})
		} else {
			qb := graph.NewBuilder(g.Labels())
			nq := 2 + rng.Intn(4)
			for j := 0; j < nq; j++ {
				qb.AddNode(g.LabelName(int32(rng.Intn(g.NumNodes()))))
			}
			for j := 1; j < nq; j++ {
				_ = qb.AddEdge(int32(rng.Intn(j)), int32(j))
			}
			q = qb.Build()
		}
		name := fmt.Sprintf("random %d (%d labels, %d nodes)", i, nlabels, g.NumNodes())
		checkAgainstNaive(t, name, q, g, &sc)

		polls := &countCtx{Context: context.Background(), at: 1 << 62}
		DualIn(polls, q, g, &sc)
		for at := 1; at <= polls.calls; at++ {
			ctx := &countCtx{Context: context.Background(), at: at}
			if _, ok, err := DualIn(ctx, q, g, &sc); !errors.Is(err, context.Canceled) || ok || ctx.calls != at {
				t.Fatalf("%s: cancelled at poll %d: ok=%v err=%v after %d polls", name, at, ok, err, ctx.calls)
			}
			cancels++
		}
	}
	t.Logf("%d passes cancelled at a poll", cancels)
	if cancels < 20 {
		t.Fatalf("only %d cancelled passes: the random graphs are too small to poll", cancels)
	}
}
