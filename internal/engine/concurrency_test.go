package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/graph"
)

// TestConcurrentQueriesSharedSnapshot hammers one shared Snapshot from many
// goroutines running a mix of query shapes, and
// checks every answer against the sequentially precomputed expectation.
// This is the test the ISSUE requires to be -race clean.
func TestConcurrentQueriesSharedSnapshot(t *testing.T) {
	g := generator.Synthetic(400, 1.2, 10, 47)
	type job struct {
		q    *graph.Graph
		opts QueryOptions
		want *core.Result
	}
	var jobs []job
	for seed := int64(0); seed < 6; seed++ {
		q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3 + int(seed%3), Alpha: 1.2, Seed: seed})
		for _, opts := range []QueryOptions{{}, PlusQuery()} {
			want, err := core.MatchWith(q, g, opts.coreOptions())
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{q: q, opts: opts, want: want})
		}
	}

	snap := NewSnapshot(g)
	e := NewWithSnapshot(snap, Config{Workers: 4})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				j := jobs[(worker+rep*5)%len(jobs)]
				got, err := e.Match(context.Background(), j.q, j.opts)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, j.want) {
					t.Errorf("concurrent query diverged: %d vs %d subgraphs", got.Len(), j.want.Len())
				}
			}
		}(worker)
	}
	// Concurrently build the pruning index and parse patterns, to race the
	// snapshot's mutable corners against live queries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for rep := 0; rep < 3; rep++ {
			snap.PruneIndex()
			if _, err := snap.ParsePattern("node a l0\nnode b fresh-label-xyz\nedge a b\n"); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCancellationBeforeStart checks an already-cancelled context aborts the
// query with its error.
func TestCancellationBeforeStart(t *testing.T) {
	q, g := testWorkload(t, 2000, 53)
	e := New(g, Config{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Match(ctx, q, QueryOptions{}); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestCancellationMidStream cancels an Each after the first match and checks
// the pass stops promptly with the context's error.
func TestCancellationMidStream(t *testing.T) {
	q, g := testWorkload(t, 4000, 59)
	e := New(g, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := 0
	stats, err := e.Each(ctx, q, QueryOptions{}, func(*core.PerfectSubgraph) bool {
		got++
		cancel()
		return true
	})
	if got > 0 {
		// The producer observed the cancellation; it must have stopped well
		// short of the full scan and reported the context error.
		if err != context.Canceled {
			t.Fatalf("got err %v, want context.Canceled", err)
		}
		if stats.BallsExamined+stats.BallsSkipped >= g.NumNodes() {
			t.Fatalf("cancellation did not stop the scan: examined %d + skipped %d of %d nodes",
				stats.BallsExamined, stats.BallsSkipped, g.NumNodes())
		}
	}
}

// TestDeadlineExpires checks a deadline aborts a long query with
// DeadlineExceeded — the per-request behavior the HTTP server relies on.
func TestDeadlineExpires(t *testing.T) {
	q, g := testWorkload(t, 6000, 61)
	e := New(g, Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	if _, err := e.Match(ctx, q, QueryOptions{}); err != context.DeadlineExceeded {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestLimitEarlyExit checks that Limit stops the query after the requested
// number of subgraphs and cancels the remaining ball evaluations, on a
// workload with far more viable centers than the limit.
func TestLimitEarlyExit(t *testing.T) {
	g := generator.Synthetic(5000, 1.2, 5, 67)
	// A 2-node pattern taken from an actual edge: with only 5 labels, a
	// large fraction of centers is viable and many balls produce a match.
	u := int32(-1)
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if g.OutDegree(v) > 0 {
			u = v
			break
		}
	}
	if u < 0 {
		t.Fatal("generated graph has no edges")
	}
	b := graph.NewBuilder(g.Labels())
	pu := b.AddNode(g.LabelName(u))
	pv := b.AddNode(g.LabelName(g.Out(u)[0]))
	_ = b.AddEdge(pu, pv)
	q := b.Build()

	e := New(g, Config{Workers: 4})
	full := mustMatch(t, e, q, QueryOptions{})
	if full.Len() < 50 {
		t.Fatalf("workload produced only %d matches; early exit not observable", full.Len())
	}

	limited := mustMatch(t, e, q, QueryOptions{Limit: 2})
	if limited.Len() != 2 {
		t.Fatalf("Limit=2 returned %d subgraphs", limited.Len())
	}
	if limited.Stats.BallsExamined >= full.Stats.BallsExamined/2 {
		t.Errorf("early exit examined %d balls; full query examined %d",
			limited.Stats.BallsExamined, full.Stats.BallsExamined)
	}
	// Every limited subgraph must be a genuine member of the full answer.
	want := make(map[string]bool, full.Len())
	for _, ps := range full.Subgraphs {
		want[ps.Signature()] = true
	}
	for _, ps := range limited.Subgraphs {
		if !want[ps.Signature()] {
			t.Error("limited query returned a subgraph the full query does not contain")
		}
	}
}

// TestLimitViaTopK pairs Limit with ranking: Result.TopK on a limited Match
// sees only the subgraphs found before the early exit.
func TestLimitViaTopK(t *testing.T) {
	q, g := testWorkload(t, 500, 71)
	e := New(g, Config{Workers: 4})
	ranked := mustMatch(t, e, q, QueryOptions{Limit: 3}).TopK(q, g, 5, nil)
	if len(ranked) > 3 {
		t.Fatalf("Limit=3 but ranking saw %d subgraphs", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Score < ranked[i].Score {
			t.Error("ranking not sorted best-first")
		}
	}
}
