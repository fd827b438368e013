package engine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
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
// (bench/workload.go at seed 1) at n nodes — 100k is the harness's own —
// with n^1.2 edges, 200 labels, and 512 distinct connected patterns of
// diameter at most 3 per mode, sampled from the graph with the harness's
// seed sequence; plain cycles 2–4 pattern nodes, plus 3–5. Each n is built
// once per test binary.
func servedWorkload(n int) (*graph.Graph, map[string][]*graph.Graph) {
	w, _ := servedWorkloads.LoadOrStore(n, sync.OnceValues(func() (*graph.Graph, map[string][]*graph.Graph) {
		g := generator.Synthetic(n, 1.2, 200, 1)
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
	}))
	return w.(func() (*graph.Graph, map[string][]*graph.Graph))()
}

var servedWorkloads sync.Map // n -> the once-built servedWorkload(n)

// servedSizes are the graph sizes the served benchmark and counts run at:
// the harness's 100k always, and a million nodes when STRONGSIM_1M is set
// (by hand: the graph takes seconds to build and ≈130 MiB).
func servedSizes() []int {
	if os.Getenv("STRONGSIM_1M") != "" {
		return []int{100000, 1000000}
	}
	return []int{100000}
}

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
// GOMAXPROCS 1 or 2), where each query mostly runs its own balls. With
// STRONGSIM_1M set, the same cells run at a million nodes too (n=1000000).
func BenchmarkMatchServed(b *testing.B) {
	for _, n := range servedSizes() {
		if n == 100000 {
			benchServed(b, n)
			continue
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchServed(b, n) })
	}
}

func benchServed(b *testing.B, n int) {
	g, pools := servedWorkload(n)
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

// denseWorkload is the regime the harness does not cover: 100k nodes of 16
// labels, where the global filter keeps thousands of nodes a query, and six
// fixed patterns of 2–4 nodes and diameter at most 2 sampled from the graph,
// each evaluating thousands of balls.
var denseWorkload = sync.OnceValues(func() (*graph.Graph, []*graph.Graph) {
	g := generator.Synthetic(100000, 1.2, 16, 3)
	var qs []*graph.Graph
	for seed := int64(1); len(qs) < 6; seed++ {
		nodes := 2 + len(qs)%3
		q := generator.SamplePattern(g, generator.PatternOptions{Nodes: nodes, Alpha: 1.2, Seed: seed})
		if d, connected := graph.Diameter(q); connected && d <= 2 && q.NumNodes() == nodes {
			qs = append(qs, q)
		}
	}
	return g, qs
})

// BenchmarkMatchDense is one Match per operation at the default worker cap,
// cycling through denseWorkload's six patterns, per mode; balls/op is the
// balls a query ran dual simulation on (BallsExamined). A query's balls there are many and share most of
// their neighbourhoods, and its kept graph is thousands of nodes: the guard
// that per-ball work does not grow with the kept set.
func BenchmarkMatchDense(b *testing.B) {
	g, qs := denseWorkload()
	e := New(g, Config{})
	ctx := context.Background()
	for _, mode := range servedModes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			balls := 0
			for i := 0; i < b.N; i++ {
				res, err := e.Match(ctx, qs[i%len(qs)], mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				balls += res.Stats.BallsExamined
			}
			b.ReportMetric(float64(balls)/float64(b.N), "balls/op")
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
	g, pools := servedWorkload(100000)
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

// TestServedBallRows pins what a served query's balls read of the data
// graph on the harness's shapes: the adjacency rows its kept graph decodes
// and its views' BFS reads, summed over the 512 patterns of each mode, as
// Match counts them into scratch_ball_rows_total, with the balls evaluated.
// Beside them, the rows the same balls read when each was built on its own
// restricted to the kept nodes (BuildRestricted with the kept list, as
// served balls were built before the kept graph). The guard: a query of
// radius ≤ 2 reads its kept graph's rows and nothing else, two a kept node.
// The counts moving says the kept graph, the view's BFS or the ball shape
// changed. With STRONGSIM_1M set, the same counts at a million nodes are
// logged beside (not pinned).
func TestServedBallRows(t *testing.T) {
	want := map[string][3]int64{ // balls, rows, rows built one by one
		"plain": {10652, 21304, 66785},
		"plus":  {2849, 5698, 39656},
	}
	ctx := context.Background()
	rowsTotal := obs.Default.Counter("scratch_ball_rows_total", "")
	for _, n := range servedSizes() {
		g, pools := servedWorkload(n)
		e := New(g, Config{Workers: 1})
		for _, mode := range servedModes {
			var oneByOne graph.BallScratch
			var balls, rows, kept int64
			for _, q := range pools[mode.name] {
				tr := new(obs.QueryStats)
				opts := mode.opts
				opts.Trace = tr
				before := rowsTotal.Value()
				if _, err := e.Match(ctx, q, opts); err != nil {
					t.Fatal(err)
				}
				got := rowsTotal.Value() - before
				rows += got
				balls += tr.BallsBuilt

				p, err := e.prepare(ctx, q, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				if p.radius <= 2 && got > 2*int64(len(p.kept)) {
					t.Errorf("%s, n=%d: a query of radius %d read %d rows for %d kept nodes", mode.name, n, p.radius, got, len(p.kept))
				}
				kept += int64(len(p.kept))
				keep := graph.SetOf(g.NumNodes(), p.kept...)
				for _, c := range p.centers {
					oneByOne.BuildRestricted(g, c, p.radius, keep, p.kept)
				}
				p.release()
			}
			built, _, rowsOne := oneByOne.Stats()
			if built != balls {
				t.Fatalf("%s, n=%d: Match built %d balls, the prepared centers number %d", mode.name, n, balls, built)
			}
			t.Logf("%s, n=%d: %d balls, %d kept, %.2f rows a query (%.2f built one by one)", mode.name, n, balls, kept,
				float64(rows)/float64(len(pools[mode.name])), float64(rowsOne)/float64(len(pools[mode.name])))
			if got := [3]int64{balls, rows, rowsOne}; n == 100000 && got != want[mode.name] {
				t.Errorf("%s: balls, rows and rows built one by one %v, want %v", mode.name, got, want[mode.name])
			}
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
	g, pools := servedWorkload(100000)
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
