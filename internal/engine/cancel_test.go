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
	tracer := obs.NewRecorder(obs.RecorderConfig{SampleRate: 1, Registry: obs.NewRegistry()})
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
		{"Engine.Each", true, func(ctx context.Context, opts QueryOptions) error {
			_, err := e.Each(ctx, q, opts, func(*core.PerfectSubgraph) bool { return true })
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
		trace, root := tracer.StartTrace(entry.name, entry.name, obs.TraceContext{})
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
		for _, sp := range rec.Trace.Spans {
			if sp.Name == "filter" {
				status = sp.Status
			}
		}
		if status != "cancelled" {
			t.Fatalf("%s: filter span status %q, want cancelled", entry.name, status)
		}
	}
}
