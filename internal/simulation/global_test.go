package simulation

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/generator"
	"repro/internal/graph"
)

// The benchmark harness's graph and pattern shapes (bench/workload.go):
// 100k nodes, n^1.2 edges, 200 labels; patterns of 3–5 nodes sampled from it.
var dualGlobalWorkload = sync.OnceValues(func() (*graph.Graph, []*graph.Graph) {
	g := generator.Synthetic(100000, 1.2, 200, 1)
	var qs []*graph.Graph
	for seed := int64(0); len(qs) < 60; seed++ {
		nodes := 3 + len(qs)%3
		q := generator.SamplePattern(g, generator.PatternOptions{Nodes: nodes, Alpha: 1.2, Seed: seed})
		if q.NumNodes() == nodes {
			qs = append(qs, q)
		}
	}
	return g, qs
})

var dualGlobalSink Relation

// BenchmarkDualGlobal times Match+'s global filter, one dual simulation over
// the whole data graph per operation: "fresh" is Dual, which the harness's
// simulation.dual_global_ms times; "pooled" is DualIn on a warmed scratch,
// which a served request runs. Reproduce EXPERIMENTS.md's table with
// -benchtime 300x -count 3 -benchmem.
func BenchmarkDualGlobal(b *testing.B) {
	g, qs := dualGlobalWorkload()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dualGlobalSink, _ = Dual(qs[i%len(qs)], g)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		var sc Scratch
		for _, q := range qs {
			DualIn(context.Background(), q, g, &sc)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dualGlobalSink, _, _ = DualIn(context.Background(), qs[i%len(qs)], g, &sc)
		}
	})
}

// TestSeedGateShare pins what the neighbour-label signatures let through on
// the harness's graph shape: of the label candidates of dualGlobalWorkload's
// 60 patterns, the seeding walk keeps 13 649 of 120 456 for the sweep to
// read the adjacency of. The count moving says the gate or the signatures
// changed.
func TestSeedGateShare(t *testing.T) {
	g, qs := dualGlobalWorkload()
	var sc Scratch
	labelled, seeded := 0, 0
	for _, q := range qs {
		rel := sc.Relation(q.NumNodes(), g.NumNodes())
		newRefiner(context.Background(), q, g, rel, ChildParent, &sc, true).seed()
		for x, set := range rel {
			labelled += len(g.NodesWithLabel(q.Label(int32(x))))
			seeded += set.Len()
		}
	}
	if labelled != 120456 || seeded != 13649 {
		t.Fatalf("seeded %d of %d label candidates, want 13649 of 120456", seeded, labelled)
	}
}

// TestDualInAllocFree: on a warmed scratch the global pass allocates nothing
// — not the relation's |V|-bit sets, not the counters, not the candidate
// lists, not the worklist — and neither does reading its matched nodes out
// as a served query does.
func TestDualInAllocFree(t *testing.T) {
	g, qs := dualGlobalWorkload()
	var sc Scratch
	var matched []int32
	for _, q := range qs {
		DualIn(context.Background(), q, g, &sc)
		matched = sc.Matched(matched[:0])
	}
	before := sc.Stats()
	i := 0
	allocs := testing.AllocsPerRun(120, func() {
		DualIn(context.Background(), qs[i%len(qs)], g, &sc)
		matched = sc.Matched(matched[:0])
		i++
	})
	if allocs != 0 {
		t.Fatalf("DualIn on a warmed scratch allocates %.2f times per pass; want 0", allocs)
	}
	if after := sc.Stats(); after.Evals-before.Evals != 121 || after.Misses != before.Misses {
		t.Fatalf("scratch counted %d cycles and %d misses over 121 warmed passes; want 121 and 0",
			after.Evals-before.Evals, after.Misses-before.Misses)
	}
}

// countCtx counts the polls of its context and reports the context
// cancelled from the at-th poll on — the way to cancel a pass while it runs
// without racing a timer against it. With a refiner to watch it also keeps
// the most work units the refiner charged between two polls (the first
// counts from the start): pollEvery less the budget the refiner has left when
// it polls. pushPolls counts the polls made inside a push, firstPushPoll
// numbers the first of them, and lastInPush says whether the latest was.
type countCtx struct {
	context.Context
	at, calls                int
	r                        *Refiner
	maxGap                   int
	pushPolls, firstPushPoll int
	lastInPush               bool
}

func (c *countCtx) Err() error {
	if c.r != nil {
		c.maxGap = max(c.maxGap, pollEvery-c.r.budget)
	}
	c.calls++
	if c.lastInPush = inPush(); c.lastInPush {
		c.pushPolls++
		if c.firstPushPoll == 0 {
			c.firstPushPoll = c.calls
		}
	}
	if c.calls >= c.at {
		return context.Canceled
	}
	return nil
}

// worstCasePair is the pattern the candidate index cannot help: one label,
// so every node is a candidate of every pattern node, and a chain. It is also
// where the signature gate passes nearly every candidate: the no-benefit
// case. The chain's middle nodes seed a few fewer candidates than its ends,
// which need a neighbour on one side only, so the sweep explores from the
// second node and pushes to both ends: every row of ≈10^5 survivors.
func worstCasePair() (q, g *graph.Graph) {
	g = generator.Synthetic(100000, 1.2, 1, 1)
	qb := graph.NewBuilder(g.Labels())
	for i := int32(0); i < 5; i++ {
		if qb.AddNode(g.LabelName(0)); i > 0 {
			_ = qb.AddEdge(i-1, i)
		}
	}
	return qb.Build(), g
}

// TestDualInCancel: a pass whose context ends while it runs returns the
// context's error within one polling interval instead of finishing, from
// every phase of the pass. The interval is stated in work units, not wall
// time, so a loaded host cannot break it: on the worst-case pattern every
// phase — the seeding walk and the sweep's pulls and pushes included —
// polls, and no stretch between two polls, before the first or after the
// last charges more than pollEvery plus the largest single charge.
func TestDualInCancel(t *testing.T) {
	q, g := worstCasePair()
	var sc Scratch
	// The largest single charge: a seeding chunk, or a candidate's rows
	// under the pattern's widest node.
	largest := pollEvery
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		for x := int32(0); x < int32(q.NumNodes()); x++ {
			largest = max(largest, q.OutDegree(x)*g.OutDegree(v)+q.InDegree(x)*g.InDegree(v))
		}
	}
	largest++

	// The pass phase by phase, as refineByLabel runs it.
	live := &countCtx{Context: context.Background(), at: 1 << 62, r: &sc.refiner}
	rel := sc.Relation(q.NumNodes(), g.NumNodes())
	r := newRefiner(live, q, g, rel, ChildParent, &sc, true)
	ok := false
	// On this pattern the propagation has almost nothing left to remove, so
	// it may end before its first poll is due.
	for _, phase := range []struct {
		name  string
		run   func()
		polls bool
	}{
		{"seed", r.seed, true}, {"sweep", r.sweep, true}, {"count", r.count, true},
		{"recheck", r.SeedAll, true}, {"propagate", func() { ok = r.Run() }, false},
	} {
		polls, pushPolls := live.calls, live.pushPolls
		live.maxGap = 0
		phase.run()
		t.Logf("%s: %d polls (%d inside a push), at most %d units between two", phase.name,
			live.calls-polls, live.pushPolls-pushPolls, live.maxGap)
		if phase.polls && live.calls == polls {
			t.Errorf("%s never polled its context", phase.name)
		}
		if phase.name == "sweep" && live.pushPolls == pushPolls {
			t.Errorf("the sweep polled no push: it took none, or none long enough to poll")
		}
		if live.maxGap > pollEvery+largest {
			t.Errorf("%s charged %d units between two polls; want ≤ %d + %d", phase.name, live.maxGap, pollEvery, largest)
		}
	}
	if tail := pollEvery - r.budget; tail > pollEvery {
		t.Errorf("the pass charged %d units after its last poll; want ≤ %d", tail, pollEvery)
	}
	want, wantOK := Dual(q, g)
	if r.err != nil || ok != wantOK || !rel.Equal(want) {
		t.Fatalf("the phases run one by one end at ok=%v err=%v, unlike Dual", ok, r.err)
	}
	if live.calls < 1000 {
		t.Fatalf("the full pass polled its context %d times; the workload is too small to cancel inside", live.calls)
	}
	// Flip early (seeding walk), inside the sweep's first push, in the middle
	// (sweep and counting) and late (re-check and propagation).
	for _, at := range []int{2, live.firstPushPoll, live.calls / 2, live.calls - 1} {
		ctx := &countCtx{Context: context.Background(), at: at}
		_, ok, err := DualIn(ctx, q, g, &sc)
		if !errors.Is(err, context.Canceled) || ok {
			t.Fatalf("flip at poll %d: ok=%v err=%v, want context.Canceled", at, ok, err)
		}
		if ctx.calls != at {
			t.Fatalf("flip at poll %d: the pass went on to poll %d times", at, ctx.calls)
		}
		if at == live.firstPushPoll && !ctx.lastInPush {
			t.Fatalf("flip at poll %d: not inside a push", at)
		}
	}
}
