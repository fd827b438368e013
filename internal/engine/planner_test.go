package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
)

// planned returns opts with a planner attached and a trace to read the
// cache outcome from.
func planned(opts QueryOptions, p *plan.Planner, tr *obs.QueryStats) QueryOptions {
	opts.Planner = p
	opts.Trace = tr
	return opts
}

// TestPlannerParityProperty is the planner's correctness bar: across graph
// sizes, densities, label counts, radii and both query modes, a planner-on
// Match answers byte-identically to the paper's unfiltered core.Match — on
// the cache-miss first run AND on the cache-hit repeat — with the Stats of a
// planner-off Match. Two labels on a dense graph is where the global filter
// keeps most centers; 200 labels is where it drops nearly all of them.
func TestPlannerParityProperty(t *testing.T) {
	type setting struct {
		n      int
		alpha  float64
		labels int
		radii  []int
	}
	var settings []setting
	for _, n := range []int{60, 200, 400} {
		for _, alpha := range []float64{0.8, 1.2, 2.0} {
			if n == 400 && alpha == 0.8 {
				continue // densest large combo adds ~10s for no extra coverage
			}
			radii := []int{0, 1, 2}
			if n == 400 {
				radii = []int{0, 1} // radius-2 balls on the large graphs dominate runtime
			}
			settings = append(settings, setting{n, alpha, 8, radii})
		}
	}
	for _, labels := range []int{2, 200} {
		settings = append(settings,
			setting{60, 2.0, labels, []int{0, 1, 2, 5}},
			setting{200, 1.4, labels, []int{0, 1, 3}},
			setting{400, 1.2, labels, []int{0, 1}})
	}
	for _, s := range settings {
		n, alpha := s.n, s.alpha
		g := generator.Synthetic(n, alpha, s.labels, int64(n)+int64(alpha*10))
		e := New(g, Config{Workers: 2})
		q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 4, Alpha: alpha, Seed: int64(n)})
		if q.NumNodes() == 0 {
			t.Fatalf("n=%d alpha=%.1f: empty pattern", n, alpha)
		}
		for _, radius := range s.radii {
			for _, mode := range []struct {
				name string
				opts QueryOptions
			}{
				{"plain", QueryOptions{Radius: radius}},
				{"plus", func() QueryOptions { o := PlusQuery(); o.Radius = radius; return o }()},
			} {
				where := fmt.Sprintf("n=%d alpha=%.1f labels=%d r=%d %s", n, alpha, s.labels, radius, mode.name)
				want := mustCoreMatch(t, q, g, core.Options{Radius: radius})
				unplanned := mustMatch(t, e, q, mode.opts)
				p := plan.NewPlanner()

				var tr1 obs.QueryStats
				miss := mustMatch(t, e, q, planned(mode.opts, p, &tr1))
				if !reflect.DeepEqual(want.Subgraphs, miss.Subgraphs) {
					t.Fatalf("%s: miss-path subgraphs differ", where)
				}
				if tr1.PlanCacheOutcome != plan.OutcomeMiss {
					t.Fatalf("%s: first run outcome = %q", where, tr1.PlanCacheOutcome)
				}
				if miss.Stats != unplanned.Stats {
					t.Fatalf("%s: miss-path stats %+v, planner-off %+v", where, miss.Stats, unplanned.Stats)
				}

				var tr2 obs.QueryStats
				hit := mustMatch(t, e, q, planned(mode.opts, p, &tr2))
				if !reflect.DeepEqual(want.Subgraphs, hit.Subgraphs) {
					t.Fatalf("%s: hit-path subgraphs differ", where)
				}
				if tr2.PlanCacheOutcome != plan.OutcomeHit {
					t.Fatalf("%s: second run outcome = %q, want hit", where, tr2.PlanCacheOutcome)
				}
				if hit.Stats != unplanned.Stats {
					t.Fatalf("%s: hit-path stats %+v, planner-off %+v", where, hit.Stats, unplanned.Stats)
				}
				if tr2.CandidateCenters != 0 {
					t.Fatalf("%s: hit path ran the filter (%d centers)", where, tr2.CandidateCenters)
				}
			}
		}
	}
}

// TestPlannerIsomorphicHit: an isomorphic pattern under a different node
// numbering must hit the same entry and come back renumbered for the new
// query, byte-identical to evaluating it directly.
func TestPlannerIsomorphicHit(t *testing.T) {
	labels := graph.NewLabels()
	g := graph.MustParse(`
node d0 A
node d1 B
node d2 C
node d3 A
node d4 B
node d5 C
node d6 B
edge d0 d1
edge d1 d2
edge d3 d4
edge d4 d5
edge d0 d6
edge d6 d2
`, labels)
	e := New(g, Config{Workers: 2})
	q1 := graph.MustParse("node a A\nnode b B\nnode c C\nedge a b\nedge b c", labels)
	q2 := graph.MustParse("node c C\nnode b B\nnode a A\nedge a b\nedge b c", labels)

	p := plan.NewPlanner()
	mustMatch(t, e, q1, planned(QueryOptions{}, p, nil))

	want := mustCoreMatch(t, q2, g, core.Options{})
	var tr obs.QueryStats
	got := mustMatch(t, e, q2, planned(QueryOptions{}, p, &tr))
	if tr.PlanCacheOutcome != plan.OutcomeHit {
		t.Fatalf("isomorphic query outcome = %q, want hit", tr.PlanCacheOutcome)
	}
	if !reflect.DeepEqual(want.Subgraphs, got.Subgraphs) {
		t.Fatalf("remapped hit differs from direct evaluation:\nwant %+v\ngot  %+v", want.Subgraphs, got.Subgraphs)
	}
}

// TestPlannerStatsParity: planned ≡ unplanned, stats included. A cached
// pattern that folds onto the query (qBig's two A sources onto qSmall's
// one) at a larger radius serves nothing: the query misses, and its whole
// Result — subgraphs and Stats — equals a planner-off Match.
func TestPlannerStatsParity(t *testing.T) {
	labels := graph.NewLabels()
	// Several A->B sites, one of which also hosts the two-source shape, plus
	// label-matching noise the filter must not misjudge.
	g := graph.MustParse(`
node d0 A
node d1 B
node d2 A
node d3 A
node d4 B
node d5 A
node d6 B
node d7 C
edge d0 d1
edge d2 d1
edge d3 d4
edge d5 d6
edge d6 d7
edge d7 d5
`, labels)
	e := New(g, Config{Workers: 2})
	qBig := graph.MustParse("node a1 A\nnode b B\nnode a2 A\nedge a1 b\nedge a2 b", labels)
	qSmall := graph.MustParse("node a A\nnode b B\nedge a b", labels)

	for _, mode := range []struct {
		name string
		opts QueryOptions
	}{
		{"plain", QueryOptions{}},
		{"plus", PlusQuery()},
	} {
		p := plan.NewPlanner()
		var trBig obs.QueryStats
		optsBig := mode.opts
		optsBig.Radius = 2
		mustMatch(t, e, qBig, planned(optsBig, p, &trBig))
		if trBig.PlanCacheOutcome != plan.OutcomeMiss {
			t.Fatalf("%s: warm run outcome = %q", mode.name, trBig.PlanCacheOutcome)
		}

		optsSmall := mode.opts
		optsSmall.Radius = 1
		want := mustMatch(t, e, qSmall, optsSmall)
		var tr obs.QueryStats
		got := mustMatch(t, e, qSmall, planned(optsSmall, p, &tr))
		if tr.PlanCacheOutcome != plan.OutcomeMiss {
			t.Fatalf("%s: query outcome = %q, want miss", mode.name, tr.PlanCacheOutcome)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: planned result differs from planner-off Match\nwant %+v\ngot  %+v", mode.name, want, got)
		}
		if len(want.Subgraphs) == 0 {
			t.Fatalf("%s: degenerate test — the query found nothing", mode.name)
		}
	}
}

// TestPlannerVersionParity: a cached answer lives for exactly the version
// it was computed on. Two snapshots of one graph stand in for consecutive
// live-store versions. Once a query has reached v2, the v1 entry is gone:
// the query misses, then hits, and a reader still on v1 misses too without
// displacing v2's entry — every answer byte-identical to the paper's
// unfiltered core.Match.
func TestPlannerVersionParity(t *testing.T) {
	q, g := testWorkload(t, 300, 11)
	for _, mode := range []struct {
		name string
		opts QueryOptions
	}{
		{"plain", QueryOptions{}},
		{"plus", PlusQuery()},
	} {
		v1, v2 := New(g, Config{Workers: 2}), New(g, Config{Workers: 2})
		v1.Snapshot().SetVersion(1)
		v2.Snapshot().SetVersion(2)
		want := mustCoreMatch(t, q, g, core.Options{})
		p := plan.NewPlanner()
		mustMatch(t, v1, q, planned(mode.opts, p, nil))

		for i, step := range []struct {
			e       *Engine
			outcome string
		}{
			{v2, plan.OutcomeMiss},
			{v2, plan.OutcomeHit},
			{v1, plan.OutcomeMiss},
			{v2, plan.OutcomeHit},
		} {
			var tr obs.QueryStats
			got := mustMatch(t, step.e, q, planned(mode.opts, p, &tr))
			if tr.PlanCacheOutcome != step.outcome {
				t.Fatalf("%s step %d: outcome = %q, want %q", mode.name, i, tr.PlanCacheOutcome, step.outcome)
			}
			if !reflect.DeepEqual(want.Subgraphs, got.Subgraphs) {
				t.Fatalf("%s step %d: planned subgraphs differ from core.Match", mode.name, i)
			}
		}
	}
}

// TestPlannerEmptyResultCached: Q ⊀D G short-circuits store an (empty)
// entry too — repeats must hit, not re-run the dual filter.
func TestPlannerEmptyResultCached(t *testing.T) {
	labels := graph.NewLabels()
	g := graph.MustParse("node d0 A\nnode d1 B\nedge d0 d1", labels)
	q := graph.MustParse("node a A\nnode b B\nnode c C\nedge a b\nedge b c", labels)
	e := New(g, Config{Workers: 1})

	p := plan.NewPlanner()
	opts := PlusQuery() // dual filter proves Q ⊀D G before any ball
	first := mustMatch(t, e, q, planned(opts, p, nil))
	if len(first.Subgraphs) != 0 {
		t.Fatalf("expected no matches, got %d", len(first.Subgraphs))
	}
	var tr obs.QueryStats
	second := mustMatch(t, e, q, planned(opts, p, &tr))
	if tr.PlanCacheOutcome != plan.OutcomeHit {
		t.Fatalf("empty-result repeat outcome = %q", tr.PlanCacheOutcome)
	}
	if len(second.Subgraphs) != 0 {
		t.Fatalf("cached empty result grew %d subgraphs", len(second.Subgraphs))
	}
}

// TestPlannerAllocs bounds the planner's allocation overhead, in the style
// of the exec and graph scratch guards:
//
//   - hit path: O(result) — a cached answer must not allocate per ball or
//     per graph node, only the constant lookup machinery (canon, key,
//     result envelope).
//   - miss path: canon plus store add O(pattern + result) on top of the
//     planner-off execution — nothing that scales with the evaluated balls.
func TestPlannerAllocs(t *testing.T) {
	q, g := testWorkload(t, 800, 7)
	e := New(g, Config{Workers: 1})
	ctx := context.Background()
	opts := QueryOptions{}

	run := func(o QueryOptions) *core.Result {
		res, err := e.Match(ctx, q, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Warm the scratch pool (relation bitsets, ball arenas) so it doesn't
	// bill the measured runs.
	warmPlanner := plan.NewPlanner()
	for i := 0; i < 50; i++ {
		run(opts)
		run(planned(opts, warmPlanner, nil))
	}

	base := testing.AllocsPerRun(100, func() { run(opts) })
	res := run(opts)

	hitPlanner := plan.NewPlanner()
	run(planned(opts, hitPlanner, nil))
	hit := testing.AllocsPerRun(100, func() { run(planned(opts, hitPlanner, nil)) })

	miss := testing.AllocsPerRun(100, func() {
		run(planned(opts, plan.NewPlanner(), nil))
	})

	t.Logf("allocs/op: base=%.0f miss=%.0f hit=%.0f; %d balls, %d matches", base, miss, hit, res.Stats.BallsExamined, len(res.Subgraphs))
	// The figures below, measured with go1.24, plus one. A hit is canon,
	// key and lookup plus the result envelope (4 matches); one allocation
	// per ball would add 18. Since balls stopped building match-graph maps,
	// the planner-off run no longer dwarfs the hit, so the hit has a bound
	// of its own. The race detector drops sync.Pool puts at random, so
	// there scratches are rebuilt now and then and only a looser hit bound
	// holds.
	maxHit := 48.0
	if raceBuild {
		maxHit = 120
	}
	if hit > maxHit {
		t.Errorf("cache hit allocates %.0f/op, want O(result) (≤ %.0f)", hit, maxHit)
	}
	if base > 154 && !raceBuild {
		t.Errorf("Match without a planner allocates %.0f/op, was 153", base)
	}
	// The miss path re-runs the full evaluation plus canon/store overhead.
	// The overhead is constant-ish in the ball count, so a generous constant
	// catches any per-ball regression.
	if miss > base+150 {
		t.Errorf("cache miss allocates %.0f/op vs %.0f planner-off — per-ball overhead crept in", miss, base)
	}
}
