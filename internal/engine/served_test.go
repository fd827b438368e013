package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
)

// servedWorkload is the benchmark harness's graph and pattern pools
// (bench/workload.go at seed 1): 100k nodes, n^1.2 edges, 200 labels, and
// 512 distinct connected patterns of diameter at most 3 per mode, sampled
// from the graph with the harness's seed sequence; plain cycles 2–4 pattern
// nodes, plus 3–5.
var servedWorkload = sync.OnceValues(func() (*graph.Graph, map[string][]*graph.Graph) {
	g := generator.Synthetic(100000, 1.2, 200, 1)
	pools := make(map[string][]*graph.Graph, 2)
	for mode, minNodes := range map[string]int{"plain": 2, "plus": 3} {
		rng := rand.New(rand.NewSource(1))
		seen := make(map[string]bool)
		var qs []*graph.Graph
		for len(qs) < 512 {
			nodes := minNodes + len(qs)%3
			q := generator.SamplePattern(g, generator.PatternOptions{Nodes: nodes, Alpha: 1.2, Seed: rng.Int63()})
			if d, connected := graph.Diameter(q); !connected || d > 3 || q.NumNodes() != nodes {
				continue
			}
			if key, _ := plan.Canon(q); !seen[key] {
				seen[key] = true
				qs = append(qs, q)
			}
		}
		pools[mode] = qs
	}
	return g, pools
})

// servedModes are the two served query modes.
var servedModes = []struct {
	name string
	opts QueryOptions
}{{"plain", QueryOptions{}}, {"plus", PlusQuery()}}

// BenchmarkMatchServed is one in-process Match per operation over the
// harness's graph and pattern pools at the default worker cap, cycling
// through 512 distinct patterns per mode, as adhoc-plain and adhoc-plus send
// them but with no HTTP, JSON or result cache in between. clients=1 is one
// query at a time, which idle pool workers help; clients=2 runs two
// concurrent streams of queries through the same engine (b.RunParallel,
// which cannot start fewer goroutines than GOMAXPROCS: two clients at
// GOMAXPROCS 1 or 2), where each query mostly runs its own balls.
func BenchmarkMatchServed(b *testing.B) {
	g, pools := servedWorkload()
	e := New(g, Config{})
	ctx := context.Background()
	for _, mode := range servedModes {
		qs := pools[mode.name]
		match := func(b *testing.B, i int) {
			if _, err := e.Match(ctx, qs[i%len(qs)], mode.opts); err != nil {
				b.Error(err)
			}
		}
		b.Run(mode.name, func(b *testing.B) {
			for _, clients := range []int{1, 2} {
				b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
					b.ReportAllocs()
					if clients == 1 {
						for i := 0; i < b.N; i++ {
							match(b, i)
						}
						return
					}
					procs := runtime.GOMAXPROCS(0)
					b.SetParallelism((clients + procs - 1) / procs)
					var next atomic.Int64
					b.RunParallel(func(pb *testing.PB) {
						for pb.Next() {
							match(b, int(next.Add(1)-1))
						}
					})
				})
			}
		})
	}
}

// TestServedScratchCounters: a query's scratch counters are folded in by
// every goroutine that evaluated its balls before Match returns, whether
// the balls ran on the caller alone (Workers: 1) or on pool workers beside
// it, whose scratches are never released. Over the harness's plain pool the
// counters that count work — balls built and their rows, simulation
// evaluations, the global passes' pairs and rows — grow by the same amount
// either way. The misses counters are left out: which scratch had to grow
// depends on which goroutine met which ball first. On a host with one P the
// pool has no room beside the caller, and both runs are sequential.
func TestServedScratchCounters(t *testing.T) {
	g, pools := servedWorkload()
	ctx := context.Background()
	var counters []*obs.Counter
	for _, name := range []string{"scratch_ball_builds_total", "scratch_ball_rows_total", "scratch_sim_evals_total",
		"scratch_global_seeded_total", "scratch_global_kept_total", "scratch_global_rows_total"} {
		counters = append(counters, obs.Default.Counter(name, ""))
	}
	growth := func(workers int) []int64 {
		e := New(g, Config{Workers: workers})
		before := make([]int64, len(counters))
		for i, c := range counters {
			before[i] = c.Value()
		}
		for _, q := range pools["plain"] {
			if _, err := e.Match(ctx, q, QueryOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range counters {
			before[i] = c.Value() - before[i]
		}
		return before
	}
	seq, pooled := growth(1), growth(2)
	t.Logf("growth over %d plain queries (builds, rows, evals, seeded, kept, global rows): %v", len(pools["plain"]), seq)
	if fmt.Sprint(seq) != fmt.Sprint(pooled) {
		t.Fatalf("scratch counters grew by %v at Workers 1, by %v at Workers 2", seq, pooled)
	}
}

// TestServedBallRows pins what a served ball reads of the data graph on the
// harness's shapes: the adjacency rows its build decodes or tests, summed
// over every ball the 512 patterns of each mode evaluate, as Match counts
// them into scratch_ball_rows_total. Beside it, the same balls built
// without the kept list, so every BFS level runs top-down. The counts
// moving says the BFS direction rule, the keep set or the ball shape
// changed.
func TestServedBallRows(t *testing.T) {
	g, pools := servedWorkload()
	e := New(g, Config{Workers: 1})
	ctx := context.Background()
	rowsTotal := obs.Default.Counter("scratch_ball_rows_total", "")
	want := map[string][3]int64{ // balls, rows, rows top-down
		"plain": {10652, 66785, 129154},
		"plus":  {2849, 39656, 136411},
	}
	for _, mode := range servedModes {
		var topDown graph.BallScratch
		var balls, rows int64
		for _, q := range pools[mode.name] {
			tr := new(obs.QueryStats)
			opts := mode.opts
			opts.Trace = tr
			before := rowsTotal.Value()
			if _, err := e.Match(ctx, q, opts); err != nil {
				t.Fatal(err)
			}
			rows += rowsTotal.Value() - before
			balls += tr.BallsBuilt

			p, err := e.prepare(ctx, q, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range p.centers {
				topDown.BuildRestricted(g, c, p.radius, p.cand, nil)
			}
			p.release()
		}
		built, _, rowsTD := topDown.Stats()
		if built != balls {
			t.Fatalf("%s: Match built %d balls, the prepared centers number %d", mode.name, balls, built)
		}
		t.Logf("%s: %d balls, %.2f rows a ball (%.2f top-down)", mode.name, balls,
			float64(rows)/float64(balls), float64(rowsTD)/float64(balls))
		if got := [3]int64{balls, rows, rowsTD}; got != want[mode.name] {
			t.Errorf("%s: balls, rows and top-down rows %v, want %v", mode.name, got, want[mode.name])
		}
		if mode.name == "plus" && 3*rows > rowsTD {
			t.Errorf("plus: the bottom-up last level reads %d rows against %d top-down, less than a 3× cut", rows, rowsTD)
		}
	}
}

// TestServedGlobalRows pins what the served queries' global dual-simulation
// passes do on the harness's shapes, summed over the 512 patterns of each
// mode as Match counts them into the scratch_global_* counters: the pairs
// the signature gate seeds, the pairs the witness sweep keeps of them, and
// the adjacency rows the sweep, the counting and the propagation test or
// decode. The counts moving says the gate, the sweep's exploration or the
// propagation changed. Beside the pin, a guard: a plus pass reads fewer
// than one row per four seeded pairs, which a sweep that pulled every
// seeded candidate (one row or more each) would not.
func TestServedGlobalRows(t *testing.T) {
	g, pools := servedWorkload()
	e := New(g, Config{Workers: 1})
	ctx := context.Background()
	counters := []*obs.Counter{
		obs.Default.Counter("scratch_global_seeded_total", ""),
		obs.Default.Counter("scratch_global_kept_total", ""),
		obs.Default.Counter("scratch_global_rows_total", ""),
	}
	want := map[string][3]int64{ // seeded, kept, rows
		"plain": {91853, 10711, 32031},
		"plus":  {116957, 2849, 8883},
	}
	for _, mode := range servedModes {
		var before, got [3]int64
		for i, c := range counters {
			before[i] = c.Value()
		}
		for _, q := range pools[mode.name] {
			if _, err := e.Match(ctx, q, mode.opts); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range counters {
			got[i] = c.Value() - before[i]
		}
		t.Logf("%s: seeded %d, kept %d, rows %d (%.1f a query)", mode.name, got[0], got[1], got[2],
			float64(got[2])/float64(len(pools[mode.name])))
		if got != want[mode.name] {
			t.Errorf("%s: seeded, kept and rows %v, want %v", mode.name, got, want[mode.name])
		}
		if mode.name == "plus" && 4*got[2] >= got[0] {
			t.Errorf("plus: the passes read %d rows for %d seeded pairs, not under a quarter", got[2], got[0])
		}
	}
}
