package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/obs"
)

// flipCtx turns cancelled at its at-th Err call, so a test can end a context
// while the phase it aims at is polling it rather than race a timer against
// the phase.
type flipCtx struct {
	context.Context
	at    int64
	calls atomic.Int64
	once  sync.Once
	done  chan struct{}
}

func newFlipCtx(at int64) *flipCtx {
	return &flipCtx{Context: context.Background(), at: at, done: make(chan struct{})}
}

func (c *flipCtx) Done() <-chan struct{} { return c.done }

func (c *flipCtx) Err() error {
	if c.calls.Add(1) < c.at {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// lateCancelCtx is cancelled by its at-th Err call, which still answers nil:
// the cancel lands just after a check passed. It is a cancelCtx underneath,
// so contexts derived from it end at once.
type lateCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	at     int64
	calls  atomic.Int64
}

func newLateCancelCtx(at int64) *lateCancelCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &lateCancelCtx{Context: ctx, cancel: cancel, at: at}
}

func (c *lateCancelCtx) Err() error {
	if c.calls.Add(1) == c.at {
		c.cancel()
		return nil
	}
	return c.Context.Err()
}

// TestMatchBatchCancelReleasesPrepared cancels a Match+ batch while its
// prepare fan-out runs — on a prepare's last check, so that prepare completes
// with its outcome still to deliver — and demands every global pass that ran
// hand its pooled scratch back: scratch_sim_evals_total, which only Release
// feeds, grows by exactly the passes started (the queries whose prepare
// reached the filter stage). A prepared query exec.Run dropped in flight used
// to take its scratch to the collector uncounted.
func TestMatchBatchCancelReleasesPrepared(t *testing.T) {
	g := generator.Synthetic(3000, 1.2, 10, 1)
	var batch []BatchQuery
	for seed := int64(1); len(batch) < 12; seed++ {
		q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: seed})
		if _, ok := graph.Diameter(q); ok && q.NumNodes() == 3 {
			batch = append(batch, BatchQuery{Pattern: q})
		}
	}
	e := New(g, Config{Workers: 2}) // 12 > exec's inline limit: a pooled fan-out
	evals := obs.Default.Counter("scratch_sim_evals_total", "")
	cancelled := 0
	for round := 0; round < 40; round++ {
		for i := range batch {
			batch[i].Opts = PlusQuery()
			batch[i].Opts.Trace = new(obs.QueryStats)
		}
		ctx := newLateCancelCtx(int64(2 + round%12))
		before := evals.Value()
		for _, r := range e.MatchBatch(ctx, batch) {
			if errors.Is(r.Err, context.Canceled) {
				cancelled++
			}
		}
		passes := int64(0)
		for _, bq := range batch {
			if bq.Opts.Trace.Stage() >= obs.StageFilter {
				passes++
			}
		}
		if got := evals.Value() - before; got != passes {
			t.Fatalf("round %d: %d global passes ran, scratch_sim_evals_total grew by %d: a prepared query's scratch was not released", round, passes, got)
		}
	}
	if cancelled == 0 {
		t.Fatal("no batch member saw the cancellation; the test cancels nothing")
	}
}

// TestCancelInsideGlobalFilter ends a context while Match+'s global dual
// simulation runs over a 100k-node graph — one label and a chain pattern, so
// the pass polls thousands of times — and demands from every entry point the
// context's error without another poll, the filter span marked cancelled, and
// the pass's pooled scratch handed back (its one cycle shows up in
// scratch_sim_evals_total, which only Release feeds).
func TestCancelInsideGlobalFilter(t *testing.T) {
	g := generator.Synthetic(100000, 1.2, 1, 1)
	qb := graph.NewBuilder(g.Labels())
	for i := int32(0); i < 4; i++ {
		if qb.AddNode(g.LabelName(0)); i > 0 {
			_ = qb.AddEdge(i-1, i)
		}
	}
	q := qb.Build()

	e := New(g, Config{Workers: 2})
	tracer := obs.NewTracer(obs.TraceConfig{SampleRate: 1, Registry: obs.NewRegistry()})
	evals := obs.Default.Counter("scratch_sim_evals_total", "")
	entries := []struct {
		name   string
		traced bool
		run    func(ctx context.Context, opts QueryOptions) error
	}{
		{"Engine.Match", true, func(ctx context.Context, opts QueryOptions) error {
			_, err := e.Match(ctx, q, opts)
			return err
		}},
		{"Engine.Stream", true, func(ctx context.Context, opts QueryOptions) error {
			s := e.Stream(ctx, q, opts)
			for range s.C {
			}
			_, err := s.Wait()
			return err
		}},
		{"core.MatchCtx", false, func(ctx context.Context, _ QueryOptions) error {
			_, err := core.MatchCtx(ctx, q, g, core.PlusOptions())
			return err
		}},
	}
	for _, entry := range entries {
		// Poll 1 is the check before the filter; 50 is deep inside the pass.
		ctx := newFlipCtx(50)
		trace, root := tracer.Start(entry.name, entry.name, obs.TraceContext{})
		opts := PlusQuery()
		opts.Trace = &obs.QueryStats{Root: root}
		before := evals.Value()
		err := entry.run(ctx, opts)
		root.End()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", entry.name, err)
		}
		if calls := ctx.calls.Load(); calls != ctx.at {
			t.Fatalf("%s: polled the context %d times; the pass should have stopped at poll %d", entry.name, calls, ctx.at)
		}
		if got := evals.Value() - before; got != 1 {
			t.Fatalf("%s: scratch_sim_evals_total grew by %d; the cancelled pass's scratch was not released", entry.name, got)
		}
		if !entry.traced {
			continue
		}
		rec, ok := tracer.Lookup(trace.ID().String())
		if !ok {
			t.Fatalf("%s: trace not kept", entry.name)
		}
		status := "no filter span"
		for _, sp := range rec.Spans {
			if sp.Name == "filter" {
				status = sp.Status
			}
		}
		if status != "cancelled" {
			t.Fatalf("%s: filter span status %q, want cancelled", entry.name, status)
		}
	}
}
