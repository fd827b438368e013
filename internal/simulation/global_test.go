package simulation

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

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
		newRefiner(context.Background(), q, g, rel, ChildParent, &sc).seed()
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
// — not the relation's |V|-bit sets, not the counters, not the worklist.
func TestDualInAllocFree(t *testing.T) {
	g, qs := dualGlobalWorkload()
	var sc Scratch
	for _, q := range qs {
		rel, _, _ := DualIn(context.Background(), q, g, &sc)
		rel.DataNodesIn(g.NumNodes(), &sc)
	}
	evals, misses := sc.Stats()
	i := 0
	allocs := testing.AllocsPerRun(120, func() {
		rel, _, _ := DualIn(context.Background(), qs[i%len(qs)], g, &sc)
		rel.DataNodesIn(g.NumNodes(), &sc)
		i++
	})
	if allocs != 0 {
		t.Fatalf("DualIn on a warmed scratch allocates %.2f times per pass; want 0", allocs)
	}
	if e, m := sc.Stats(); e-evals != 121 || m != misses {
		t.Fatalf("scratch counted %d cycles and %d misses over 121 warmed passes; want 121 and 0", e-evals, m-misses)
	}
}

// flipCtx counts the polls of its context, keeps the longest wait between
// two of them (the first counts from last as the caller set it), and reports the context cancelled from the at-th poll on — the
// way to cancel a pass while it runs without racing a timer against it.
type flipCtx struct {
	context.Context
	at, calls int
	last      time.Time
	maxGap    time.Duration
}

func (c *flipCtx) Err() error {
	now := time.Now()
	c.maxGap = max(c.maxGap, now.Sub(c.last))
	c.last = now
	if c.calls++; c.calls >= c.at {
		return context.Canceled
	}
	return nil
}

// worstCasePair is the pattern the candidate index cannot help: one label,
// so every node is a candidate of every pattern node, and a chain. It is also
// where the signature gate passes every candidate: the no-benefit case.
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
// every phase of the pass, and on the worst-case pattern never goes 2 ms
// without looking — the seeding walk included, which at 1.5 ms was the
// longest stretch while label initialisation went unpolled.
func TestDualInCancel(t *testing.T) {
	q, g := worstCasePair()
	var sc Scratch
	// A cancel is seen at the next poll, so the longest the full pass goes
	// without polling — before its first poll and after its last included —
	// bounds the cancel latency. Best of three: a stall of the host is not
	// the refiner's.
	var live *flipCtx
	var full time.Duration
	for attempt := 0; attempt < 3 && (live == nil || live.maxGap > 2*time.Millisecond); attempt++ {
		live = &flipCtx{Context: context.Background(), at: 1 << 62, last: time.Now()}
		start := live.last
		if _, ok, err := DualIn(live, q, g, &sc); err != nil || !ok {
			t.Fatalf("uncancelled pass: ok=%v err=%v", ok, err)
		}
		full = time.Since(start)
		live.maxGap = max(live.maxGap, time.Since(live.last))
	}
	t.Logf("full pass %v with %d polls; cancel latency at most %v", full, live.calls, live.maxGap)
	if live.maxGap > 2*time.Millisecond && !raceBuild {
		t.Fatalf("the pass went %v without looking at its context; want < 2ms", live.maxGap)
	}
	if live.calls < 1000 {
		t.Fatalf("the full pass polled its context %d times; the workload is too small to cancel inside", live.calls)
	}
	// Flip early (seeding walk), in the middle (sweep and counting) and late
	// (re-check and propagation).
	for _, at := range []int{2, live.calls / 2, live.calls - 1} {
		ctx := &flipCtx{Context: context.Background(), at: at, last: time.Now()}
		_, ok, err := DualIn(ctx, q, g, &sc)
		if !errors.Is(err, context.Canceled) || ok {
			t.Fatalf("flip at poll %d: ok=%v err=%v, want context.Canceled", at, ok, err)
		}
		if ctx.calls != at {
			t.Fatalf("flip at poll %d: the pass went on to poll %d times", at, ctx.calls)
		}
	}

}
