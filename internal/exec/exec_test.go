package exec_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/obs"
)

// TestRunSequentialDeterministic: Workers 1 must call eval and sink
// alternately, in position order, on the calling goroutine.
func TestRunSequentialDeterministic(t *testing.T) {
	var trace []string
	err := exec.Run(context.Background(), exec.Options{Workers: 1}, 4,
		func(_ *exec.Scratch, pos int) int {
			trace = append(trace, fmt.Sprintf("eval%d", pos))
			return pos * 10
		},
		func(pos, v int) bool {
			trace = append(trace, fmt.Sprintf("sink%d=%d", pos, v))
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	want := "[eval0 sink0=0 eval1 sink1=10 eval2 sink2=20 eval3 sink3=30]"
	if got := fmt.Sprint(trace); got != want {
		t.Fatalf("sequential trace %s, want %s", got, want)
	}
}

// TestRunParallelCoversAll: every position is evaluated exactly once and
// reaches the sink, at any worker count.
func TestRunParallelCoversAll(t *testing.T) {
	for _, workers := range []int{0, 2, 3, 16} {
		const n = 257
		var evals atomic.Int64
		seen := make([]bool, n)
		err := exec.Run(context.Background(), exec.Options{Workers: workers}, n,
			func(_ *exec.Scratch, pos int) int {
				evals.Add(1)
				return pos
			},
			func(pos, v int) bool {
				if v != pos {
					t.Errorf("workers=%d: sink got (%d,%d)", workers, pos, v)
				}
				if seen[pos] {
					t.Errorf("workers=%d: pos %d delivered twice", workers, pos)
				}
				seen[pos] = true
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		if evals.Load() != n {
			t.Fatalf("workers=%d: %d evals, want %d", workers, evals.Load(), n)
		}
		for pos, ok := range seen {
			if !ok {
				t.Fatalf("workers=%d: pos %d never delivered", workers, pos)
			}
		}
	}
}

// TestRunOrderedOrder: the ordered variant must deliver ascending positions
// whatever order workers finish in.
func TestRunOrderedOrder(t *testing.T) {
	const n = 100
	next := 0
	err := exec.RunOrdered(context.Background(), exec.Options{Workers: 8}, n,
		func(_ *exec.Scratch, pos int) int { return pos },
		func(pos, v int) bool {
			if pos != next {
				t.Fatalf("ordered sink saw pos %d, want %d", pos, next)
			}
			next++
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("delivered %d, want %d", next, n)
	}
}

// TestRunEarlyExit: a sink stop with a live context reports nil and stops
// feeding the sink.
func TestRunEarlyExit(t *testing.T) {
	for _, workers := range []int{1, 4} {
		delivered := 0
		err := exec.Run(context.Background(), exec.Options{Workers: workers}, 1000,
			func(_ *exec.Scratch, pos int) int { return pos },
			func(pos, v int) bool {
				delivered++
				return delivered < 5
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if delivered != 5 {
			t.Fatalf("workers=%d: sink saw %d outcomes after stop, want 5", workers, delivered)
		}
	}
}

// TestRunContextCancel: a dead context surfaces as its error, sequential and
// parallel alike.
func TestRunContextCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		delivered := 0
		err := exec.Run(ctx, exec.Options{Workers: workers}, 100000,
			func(_ *exec.Scratch, pos int) int { return pos },
			func(pos, v int) bool {
				delivered++
				if delivered == 3 {
					cancel()
				}
				return true
			})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err %v, want context.Canceled", workers, err)
		}
		if delivered >= 100000 {
			t.Fatalf("workers=%d: cancellation did not stop the run", workers)
		}
	}
}

// TestRunZeroItems: an empty position space is a no-op.
func TestRunZeroItems(t *testing.T) {
	err := exec.Run(context.Background(), exec.Options{}, 0,
		func(_ *exec.Scratch, pos int) int { t.Fatal("eval called"); return 0 },
		func(pos, v int) bool { t.Fatal("sink called"); return false })
	if err != nil {
		t.Fatal(err)
	}
}

// allocWorkload is the medium ball-evaluation workload of the
// allocation-regression guard and the exec benchmark: a mid-size synthetic
// graph with the label diversity of the paper's synthetic experiments.
func allocWorkload() (q, g *graph.Graph) {
	g = generator.Synthetic(5000, 1.2, 50, 7)
	q = generator.SamplePattern(g, generator.PatternOptions{Nodes: 6, Alpha: 1.2, Seed: 9})
	return q, g
}

// TestBallEvalAllocsPerOp pins allocations per ball evaluation on the
// scratch path, so the per-worker reuse introduced in PR 5 cannot silently
// regress. The pre-refactor pipeline paid ~40 allocations per evaluated
// ball on this workload (fresh BFS map, Builder-built induced subgraph,
// relation node sets, refiner counter rows); the scratch path must stay
// under 8 averaged across centers (matching centers still allocate their
// returned PerfectSubgraph, which is output, not scratch).
func TestBallEvalAllocsPerOp(t *testing.T) {
	q, g := allocWorkload()
	dq, ok := graph.Diameter(q)
	if !ok {
		t.Fatal("pattern disconnected")
	}
	s := new(exec.Scratch)
	center := int32(0)
	evalOne := func() {
		c := center % int32(g.NumNodes())
		center += 17
		if len(q.NodesWithLabel(g.Label(c))) == 0 {
			return // same precheck as the pipeline: no ball is built
		}
		ball := s.Balls.Build(g, c, dq)
		core.EvalPreparedBallIn(q, ball, c, core.Options{}, nil, &s.Sim)
	}
	// Warm the arenas first: the guard pins steady state, not cold start.
	for i := 0; i < 300; i++ {
		evalOne()
	}
	allocs := testing.AllocsPerRun(500, evalOne)
	if allocs > 8 {
		t.Fatalf("ball evaluation allocates %.2f times per center; the scratch path must stay under 8", allocs)
	}
	t.Logf("ball evaluation: %.2f allocs per center", allocs)
}

// BenchmarkExecBallEvalRestricted is one center's ball built and evaluated
// on a worker's scratch as the engine runs it: every center of the
// pattern's candidate set, each ball restricted to that set.
func BenchmarkExecBallEvalRestricted(b *testing.B) {
	q, g := allocWorkload()
	radius, ok := graph.Diameter(q)
	if !ok {
		b.Fatal("pattern disconnected")
	}
	cand := g.NodesLabeledIn(q)
	s := new(exec.Scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		center := int32(i % g.NumNodes())
		if !cand.Contains(center) {
			continue
		}
		ball := s.Balls.BuildRestricted(g, center, radius, cand)
		core.EvalPreparedBallIn(q, ball, center, core.Options{}, nil, &s.Sim)
	}
}

// TestRunProgressTicks: a supplied Progress counts exactly one tick per
// completed evaluation, on the sequential and pooled paths alike.
func TestRunProgressTicks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := new(obs.Progress)
		const n = 257
		err := exec.Run(context.Background(), exec.Options{Workers: workers, Progress: p}, n,
			func(_ *exec.Scratch, pos int) int { return pos },
			func(pos, v int) bool { return true })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := p.Balls(); got != n {
			t.Fatalf("workers=%d: progress counted %d balls, want %d", workers, got, n)
		}
	}
}

// TestRunProgressAllocFree pins the observability contract on the pool:
// threading a Progress through a run adds no allocations over the nil
// (recorder-off) path — the tick is one atomic add behind one branch — and
// an explicitly-zero Span (tracing off) adds none either, so the span
// plumbing stays free for untraced queries.
func TestRunProgressAllocFree(t *testing.T) {
	eval := func(_ *exec.Scratch, pos int) int { return pos }
	sink := func(pos, v int) bool { return true }
	runWith := func(p *obs.Progress, sp obs.Span) {
		if err := exec.Run(context.Background(), exec.Options{Workers: 1, Progress: p, Span: sp}, 64, eval, sink); err != nil {
			t.Fatal(err)
		}
	}
	base := testing.AllocsPerRun(200, func() { runWith(nil, obs.Span{}) })
	p := new(obs.Progress)
	withProgress := testing.AllocsPerRun(200, func() { runWith(p, obs.Span{}) })
	if withProgress > base {
		t.Fatalf("progress ticking allocates: %.2f allocs/run with Progress vs %.2f without", withProgress, base)
	}
	// A sequential run takes its Scratch from the pool and allocates
	// nothing per ball.
	if base > 3 {
		t.Fatalf("recorder-off run allocates %.2f times, want <= 3", base)
	}
	if p.Balls() == 0 {
		t.Fatal("progress never ticked")
	}
	t.Logf("allocs/run: %.2f without progress, %.2f with", base, withProgress)
}

// TestExecMatchesCoreGolden cross-checks the executor end to end: MatchCtx
// through the pool at several widths must reproduce MatchWith exactly (the
// byte-level pin lives in core's golden test).
func TestExecMatchesCoreGolden(t *testing.T) {
	q, g := func() (*graph.Graph, *graph.Graph) {
		g := generator.Synthetic(600, 1.3, 12, 3)
		return generator.SamplePattern(g, generator.PatternOptions{Nodes: 4, Alpha: 1.2, Seed: 5}), g
	}()
	want, err := core.MatchWith(q, g, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 7} {
		got, err := core.MatchCtx(context.Background(), q, g, core.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Subgraphs) != len(want.Subgraphs) || got.Stats != want.Stats {
			t.Fatalf("workers=%d diverged: %d vs %d subgraphs, stats %+v vs %+v",
				workers, len(got.Subgraphs), len(want.Subgraphs), got.Stats, want.Stats)
		}
		for i := range want.Subgraphs {
			if want.Subgraphs[i].Signature() != got.Subgraphs[i].Signature() {
				t.Fatalf("workers=%d: subgraph %d differs", workers, i)
			}
		}
	}
}

// TestMatchCtxCancellation: the satellite requirement — library callers get
// cancellation without going through the engine.
func TestMatchCtxCancellation(t *testing.T) {
	q, g := allocWorkload()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.MatchCtx(ctx, q, g, core.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled MatchCtx returned %v, want context.Canceled", err)
	}
}

// TestRestrictedBallEvalAllocFree pins the served path's steady state: a
// ball built restricted to the query's candidate set and evaluated on the
// worker's scratch allocates nothing when it matches nothing (a matching
// ball still allocates its returned PerfectSubgraph, which is output).
func TestRestrictedBallEvalAllocFree(t *testing.T) {
	q, g := allocWorkload()
	dq, _ := graph.Diameter(q)
	cand := g.NodesLabeledIn(q)
	s := new(exec.Scratch)
	var barren []int32 // candidate centers whose ball has no perfect subgraph
	for _, c := range cand.Slice() {
		ball := s.Balls.BuildRestricted(g, c, dq, cand)
		if ps, _ := core.EvalPreparedBallIn(q, ball, c, core.Options{}, nil, &s.Sim); ps == nil {
			barren = append(barren, c)
		}
	}
	if len(barren) < 50 {
		t.Fatalf("workload has only %d non-matching candidate centers", len(barren))
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		c := barren[i%len(barren)]
		i++
		ball := s.Balls.BuildRestricted(g, c, dq, cand)
		core.EvalPreparedBallIn(q, ball, c, core.Options{}, nil, &s.Sim)
	})
	if allocs != 0 {
		t.Fatalf("restricted build + eval of a non-matching ball allocates %.2f times; want 0", allocs)
	}
}

// TestScratchPooledAcrossRuns: scratches outlive a run, so after the first
// run on a graph later runs stop growing arenas, and the scratch_* counters
// still count every build exactly once however many runs a scratch serves.
func TestScratchPooledAcrossRuns(t *testing.T) {
	_, g := allocWorkload()
	builds := obs.Default.Counter("scratch_ball_builds_total", "")
	misses := obs.Default.Counter("scratch_ball_misses_total", "")
	const runs, perRun = 40, 50
	build := func(s *exec.Scratch, pos int) int {
		return s.Balls.Build(g, int32(pos*7%g.NumNodes()), 2).NumNodes()
	}
	runOnce := func(workers int) {
		err := exec.Run(context.Background(), exec.Options{Workers: workers}, perRun, build,
			func(int, int) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
	}
	// What one run costs a scratch that starts cold.
	cold := new(exec.Scratch)
	for pos := 0; pos < perRun; pos++ {
		build(cold, pos)
	}
	_, coldMisses := cold.Balls.Stats()

	runOnce(1)
	b0, m0 := builds.Value(), misses.Value()
	for i := 0; i < runs; i++ {
		runOnce(1)
	}
	runOnce(3)
	if got := builds.Value() - b0; got != (runs+1)*perRun {
		t.Fatalf("scratch_ball_builds_total grew by %d over %d builds", got, (runs+1)*perRun)
	}
	// A fresh scratch per run would miss coldMisses times in every run. The
	// pool may hand out a cold one now and then (a collection; the race
	// detector makes sync.Pool drop a quarter of its Puts), not most times.
	if got := misses.Value() - m0; got >= runs*coldMisses*3/4 {
		t.Fatalf("scratch_ball_misses_total grew by %d over %d sequential runs (a cold run costs %d): scratches are not reused",
			got, runs, coldMisses)
	}
}

// TestSmallRunsInline pins the inline cut-off (inlineMax = 8): a run of up to
// eight positions takes the sequential path on the calling goroutine whatever
// Workers says, a larger one the pool, and on both sides of the constant a
// wide run reports what a Workers: 1 run reports — same outcomes in the same
// ordered delivery, the same Limit-style early exit, the same Progress ticks
// and one "eval.worker" span per worker carrying its ball count.
func TestSmallRunsInline(t *testing.T) {
	tracer := obs.NewTracer(obs.TraceConfig{SampleRate: 1, Registry: obs.NewRegistry()})
	for _, n := range []int{7, 8, 9, 10} {
		for _, stopAfter := range []int{0, 3} { // 0: run to the end
			type report struct {
				delivered   []string
				ticks       int64
				spans       int
				balls       int64
				interleaved bool // eval and sink strictly alternated
			}
			run := func(workers int) report {
				var rep report
				var events []string // appended by eval and sink; the inline path needs no lock
				var evals atomic.Int64
				p := new(obs.Progress)
				trace, root := tracer.Start("run", fmt.Sprintf("n%d-w%d-s%d", n, workers, stopAfter), obs.TraceContext{})
				err := exec.RunOrdered(context.Background(), exec.Options{Workers: workers, Progress: p, Span: root}, n,
					func(_ *exec.Scratch, pos int) int {
						if evals.Add(1); workers == 1 || n <= 8 {
							events = append(events, fmt.Sprintf("eval%d", pos))
						}
						return pos * pos
					},
					func(pos, v int) bool {
						events = append(events, fmt.Sprintf("sink%d", pos))
						rep.delivered = append(rep.delivered, fmt.Sprintf("%d=%d", pos, v))
						return len(rep.delivered) != stopAfter
					})
				if err != nil {
					t.Fatal(err)
				}
				root.End()
				rec, ok := tracer.Lookup(trace.ID().String())
				if !ok {
					t.Fatal("trace not kept")
				}
				for _, sp := range rec.Spans {
					if sp.Name != "eval.worker" {
						continue
					}
					rep.spans++
					for _, a := range sp.Attrs {
						if a.Key == "balls" {
							rep.balls += a.Value
						}
					}
				}
				rep.ticks = p.Balls()
				rep.interleaved = true
				for i, ev := range events {
					want := fmt.Sprintf("eval%d", i/2)
					if i%2 == 1 {
						want = fmt.Sprintf("sink%d", i/2)
					}
					rep.interleaved = rep.interleaved && ev == want
				}
				if evals.Load() != rep.ticks || rep.balls != rep.ticks {
					t.Fatalf("n=%d workers=%d: %d evals, %d ticks, %d balls on spans", n, workers, evals.Load(), rep.ticks, rep.balls)
				}
				return rep
			}
			seq, wide := run(1), run(4)
			if fmt.Sprint(seq.delivered) != fmt.Sprint(wide.delivered) {
				t.Fatalf("n=%d stop=%d: sequential delivered %v, 4 workers %v", n, stopAfter, seq.delivered, wide.delivered)
			}
			if !seq.interleaved || seq.spans != 1 {
				t.Fatalf("n=%d: Workers 1 run not sequential (%d worker spans)", n, seq.spans)
			}
			if inline := n <= 8; inline != (wide.interleaved && wide.spans == 1) {
				t.Fatalf("n=%d stop=%d: 4-worker run inline=%v (interleaved %v, %d worker spans), want inline=%v",
					n, stopAfter, !inline, wide.interleaved, wide.spans, inline)
			}
			if n <= 8 && wide.ticks != seq.ticks {
				t.Fatalf("n=%d stop=%d: %d evaluations inline, %d sequential", n, stopAfter, wide.ticks, seq.ticks)
			}
		}
	}
}
