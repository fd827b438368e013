package simulation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/generator"
	"repro/internal/graph"
)

// inPush reports whether its caller was called, at any depth, from
// Refiner.push: a countCtx asks it at every poll.
func inPush() bool {
	var pcs [32]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*Refiner).push") {
			return true
		}
		if !more {
			return false
		}
	}
}

// explorePattern draws a pattern over g's labels: one or two components,
// each a random spanning tree of random edge directions, then a few more
// edges inside a component — cycles, self-loops, and 2-cycles that reverse a
// tree edge. Each node takes the label of a random data node or, as often,
// of a neighbour of the previous node's, so that many patterns keep
// candidates through the pass.
func explorePattern(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	nq := 2 + rng.Intn(6)
	comps := 1 + rng.Intn(2)
	if nq < 4 {
		comps = 1
	}
	qb := graph.NewBuilder(g.Labels())
	v := int32(rng.Intn(g.NumNodes()))
	for j := 0; j < nq; j++ {
		if rng.Intn(2) == 0 {
			v = int32(rng.Intn(g.NumNodes()))
		} else if out := g.Out(v); len(out) > 0 {
			v = out[rng.Intn(len(out))]
		} else if in := g.In(v); len(in) > 0 {
			v = in[rng.Intn(len(in))]
		}
		qb.AddNode(g.LabelName(v))
	}
	comp := func(j int) int { return j * comps / nq } // contiguous blocks
	var tree [][2]int32
	for j := 1; j < nq; j++ {
		first := j
		for first > 0 && comp(first-1) == comp(j) {
			first--
		}
		if first == j {
			continue // the first node of a component
		}
		p := int32(first + rng.Intn(j-first))
		e := [2]int32{p, int32(j)}
		if rng.Intn(2) == 0 {
			e = [2]int32{int32(j), p}
		}
		tree = append(tree, e)
		_ = qb.AddEdge(e[0], e[1])
	}
	for k := rng.Intn(3); k > 0; k-- {
		if len(tree) > 0 && rng.Intn(2) == 0 {
			e := tree[rng.Intn(len(tree))]
			_ = qb.AddEdge(e[1], e[0]) // a 2-cycle
			continue
		}
		a, b := rng.Intn(nq), rng.Intn(nq)
		if comp(a) == comp(b) {
			_ = qb.AddEdge(int32(a), int32(b)) // a cycle, or a self-loop
		}
	}
	return qb.Build()
}

// childOnlyTrap is the pair on which pushing along a pattern edge p→x under
// ChildOnly would lose a valid pair: q is A→B, and of G's two B nodes only
// one has an A parent. A (one candidate) is explored first and reaches B
// (two) along A→B; plain simulation asks nothing of B's parents, so both B
// nodes match.
func childOnlyTrap() (q, g *graph.Graph) {
	labels := graph.NewLabels()
	qb := graph.NewBuilder(labels)
	qb.AddNode("A")
	qb.AddNode("B")
	_ = qb.AddEdge(0, 1)
	gb := graph.NewBuilder(labels)
	a, b := gb.AddNode("A"), gb.AddNode("B")
	gb.AddNode("B")
	_ = gb.AddEdge(a, b)
	return qb.Build(), gb.Build()
}

// TestExplorationAgainstNaive is the differential test of the sweep's
// exploration order. On random graphs of 1–16 labels and connected and
// disconnected patterns with cycles and 2-cycles, in both modes, the pass
// computes what the paper's fixpoints compute (Simulation ≡ SimulationNaive,
// Dual ≡ DualNaive, the pooled pass and DualIn ≡ both, Scratch.Matched ≡
// the relation's node set). A pass cancelled at any of its polls — pushes'
// polls included — reports context.Canceled and polls no more. The pushes'
// polls are counted so that the test cannot pass without taking them.
func TestExplorationAgainstNaive(t *testing.T) {
	var sc Scratch
	q, g := childOnlyTrap()
	if rel, ok := Simulation(q, g); !ok || rel[1].Len() != 2 {
		t.Fatalf("child-only trap: Simulation %v (%v), want both B nodes matched", rel, ok)
	}
	checkAgainstNaive(t, "child-only trap", q, g, &sc)

	rng := rand.New(rand.NewSource(7))
	type tally struct{ passes, pushed, cancels, inPush int }
	count := map[Mode]*tally{ChildOnly: {}, ChildParent: {}}
	disconnected := 0
	for i := 0; i < 64; i++ {
		nlabels := 1 + i%16
		g := generator.Synthetic(1000+rng.Intn(4000), 1.2, nlabels, int64(i))
		q := explorePattern(g, rng)
		if !q.IsConnected() {
			disconnected++
		}
		name := fmt.Sprintf("pair %d (%d labels, %d nodes, pattern %d nodes %d edges)", i, nlabels, g.NumNodes(), q.NumNodes(), q.NumEdges())
		checkAgainstNaive(t, name, q, g, &sc)

		for mode, c := range count {
			polls := &countCtx{Context: context.Background(), at: 1 << 62}
			refineByLabel(polls, q, g, mode, &sc)
			c.passes++
			if polls.pushPolls > 0 {
				c.pushed++
			}
			for at := 1; at <= polls.calls; at++ {
				ctx := &countCtx{Context: context.Background(), at: at}
				if _, ok, err := refineByLabel(ctx, q, g, mode, &sc); !errors.Is(err, context.Canceled) || ok || ctx.calls != at {
					t.Fatalf("%s, mode %d: cancelled at poll %d: ok=%v err=%v after %d polls", name, mode, at, ok, err, ctx.calls)
				}
				c.cancels++
				if ctx.lastInPush {
					c.inPush++
				}
			}
		}
	}
	t.Logf("%d disconnected patterns", disconnected)
	for mode, c := range count {
		t.Logf("mode %d: %d passes, %d polled inside a push; %d cancelled at a poll, %d of them inside a push",
			mode, c.passes, c.pushed, c.cancels, c.inPush)
		if c.pushed < 5 || c.inPush < 10 {
			t.Errorf("mode %d: pushes polled in %d passes and were cancelled %d times: too few to test them", mode, c.pushed, c.inPush)
		}
	}
	if disconnected < 10 {
		t.Errorf("only %d disconnected patterns", disconnected)
	}
}
