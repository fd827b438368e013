package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
)

// TestRecordViewsAgree runs one traced, flight-recorded Match and one Each
// and holds every view of the query to its record: each stage span ran
// exactly the record's stage duration, the recorder filed the record's Stats
// (what query_stats serialises) beside the kept trace, and the eval span's
// balls attr is BallsBuilt. A /v1/debug-style reader polls the in-flight table throughout,
// so the race detector sees the live reads against the engine's writes.
func TestRecordViewsAgree(t *testing.T) {
	q, g := testWorkload(t, 600, 3)
	e := New(g, Config{Workers: 2})
	recorder := obs.NewRecorder(obs.RecorderConfig{SampleRate: 1, SlowThreshold: -1, Registry: obs.NewRegistry()})

	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, a := range recorder.Active() {
				if a.Balls < 0 || a.Stage > obs.StageMerge {
					t.Errorf("in-flight %s: stage %v, %d balls", a.RequestID, a.Stage, a.Balls)
				}
			}
		}
	}()
	defer func() {
		close(stop)
		poller.Wait()
	}()

	ctx := context.Background()
	entries := []struct {
		name   string
		stages []string
		run    func(QueryOptions) error
	}{
		{"match", []string{"prepare", "filter", "eval", "merge"}, func(opts QueryOptions) error {
			_, err := e.Match(ctx, q, opts)
			return err
		}},
		{"each", []string{"prepare", "filter", "eval"}, func(opts QueryOptions) error {
			_, err := e.Each(ctx, q, opts, func(*core.PerfectSubgraph) bool { return true })
			return err
		}},
	}
	for _, entry := range entries {
		trace, root := recorder.StartTrace(entry.name, entry.name, obs.TraceContext{})
		tr := &obs.QueryStats{Root: root}
		fl := recorder.StartFlight(entry.name, entry.name, "d", nil, tr)
		if err := entry.run(QueryOptions{Trace: tr, Planner: plan.NewPlanner()}); err != nil {
			t.Fatalf("%s: %v", entry.name, err)
		}
		fl.Finish(obs.OutcomeOK, "", 0)
		root.End()

		if tr.BallsBuilt == 0 {
			t.Fatalf("%s: the query built no balls; the test checks nothing", entry.name)
		}
		rec, ok := recorder.Lookup(trace.ID().String())
		if !ok {
			t.Fatalf("%s: trace not kept", entry.name)
		}
		stage := map[string]obs.SpanRecord{}
		for _, sp := range rec.Trace.Spans {
			if sp.Parent == rec.Trace.Root {
				stage[sp.Name] = sp
			}
		}
		if len(stage) != len(entry.stages) {
			t.Errorf("%s: root children %v, want the stages %v", entry.name, stage, entry.stages)
		}
		took := map[string]time.Duration{"prepare": tr.Prepare, "filter": tr.Filter, "eval": tr.Eval, "merge": tr.Merge}
		for _, name := range entry.stages {
			sp, ok := stage[name]
			if !ok {
				t.Errorf("%s: no %s span", entry.name, name)
				continue
			}
			if sp.Duration != took[name] {
				t.Errorf("%s: %s span ran %v, the record's %s stage %v", entry.name, name, sp.Duration, name, took[name])
			}
		}
		var balls int64 = -1
		for _, a := range stage["eval"].Attrs {
			if a.Key == "balls" {
				balls = a.Value
			}
		}
		if balls != tr.BallsBuilt {
			t.Errorf("%s: eval span balls=%d, record BallsBuilt=%d", entry.name, balls, tr.BallsBuilt)
		}
		if rec.RequestID != entry.name || !rec.HasQuery() {
			t.Fatalf("%s: the kept trace's record %+v holds no record of the query", entry.name, rec)
		}
		if rec.Query.Stats != tr.Stats {
			t.Errorf("%s: the recorder filed %+v, the record holds %+v", entry.name, rec.Query.Stats, tr.Stats)
		}
	}
}

// TestRecordAllocs is the record's zero-cost-when-off proof at the engine:
// a Match without a record allocates no more than the figures below
// (measured with go1.24 on these workloads: 27 and 106 since served balls
// became views of one kept graph), and a record with no tracer and no
// flight recorder adds a constant — the same on two workloads whose ball
// counts differ several-fold, so nothing it does is per ball. Each side
// averages 500 queries: now and then a garbage collection leaves the
// scratch pool a scratch short, and the replacement's first query allocates
// its arenas, 60–90 allocations once, which over 50 queries moved the
// average by one.
func TestRecordAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector drops sync.Pool puts at random, so scratch allocations vary run to run")
	}
	ctx := context.Background()
	var extra []float64
	for _, wl := range []struct {
		n       int
		maxBase float64
	}{{400, 30}, {1500, 115}} {
		q, g := testWorkload(t, wl.n, 11)
		e := New(g, Config{Workers: 1})
		run := func(tr *obs.QueryStats) {
			if _, err := e.Match(ctx, q, QueryOptions{Trace: tr}); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the snapshot's lazies and the scratch pool.
		for i := 0; i < 20; i++ {
			run(nil)
		}
		counted := new(obs.QueryStats)
		run(counted)
		base := testing.AllocsPerRun(500, func() { run(nil) })
		tr := new(obs.QueryStats)
		with := testing.AllocsPerRun(500, func() { run(tr) })
		t.Logf("n=%d: %d balls, %.0f allocs/op without a record, %.0f with", wl.n, counted.BallsBuilt, base, with)
		if base > wl.maxBase {
			t.Errorf("n=%d: Match without a record allocates %.0f/op, was %.0f", wl.n, base, wl.maxBase)
		}
		extra = append(extra, with-base)
	}
	if extra[0] != extra[1] {
		t.Errorf("a record adds %.0f allocs/op on the small workload and %.0f on the large: per-ball cost crept in", extra[0], extra[1])
	}
}
