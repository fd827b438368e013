package engine

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/obs"
	"repro/internal/plan"
)

// TestSlicesMergeToMatch is the center-slice property a fleet of full
// replicas rests on: the k sliced results, admitted in center order through
// one deduper, are the unsliced Match byte for byte, and their work counters
// sum to its statistics (balls_skipped, counted against every candidate, is
// the same in every slice). Each over a slice emits only its centers.
func TestSlicesMergeToMatch(t *testing.T) {
	ctx := context.Background()
	for _, labels := range []int{2, 5} {
		g := generator.Synthetic(120, 1.4, labels, int64(labels))
		e := New(g, Config{Workers: 2})
		for seed := int64(1); seed <= 4; seed++ {
			q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: seed})
			for _, base := range []QueryOptions{{}, PlusQuery(), {Radius: 1}} {
				want := mustMatch(t, e, q, base)
				for _, k := range []int{1, 2, 3, 5} {
					where := fmt.Sprintf("labels=%d seed=%d plus=%v r=%d k=%d", labels, seed, base.MinimizeQuery, base.Radius, k)
					var all []*core.PerfectSubgraph
					var stats core.Stats
					for i := 0; i < k; i++ {
						opts := base
						opts.Slice = CenterSlice{Index: i, Of: k}
						res := mustMatch(t, e, q, opts)
						for _, ps := range res.Subgraphs {
							if int(ps.Center)%k != i {
								t.Fatalf("%s: slice %d answered center %d", where, i, ps.Center)
							}
						}
						all = append(all, res.Subgraphs...)
						stats.BallsExamined += res.Stats.BallsExamined
						stats.PairsRemoved += res.Stats.PairsRemoved
						stats.Duplicates += res.Stats.Duplicates
						stats.BallsSkipped = res.Stats.BallsSkipped
						stats.MinimizedFrom = res.Stats.MinimizedFrom

						_, err := e.Each(ctx, q, opts, func(ps *core.PerfectSubgraph) bool {
							if int(ps.Center)%k != i {
								t.Fatalf("%s: Each over slice %d emitted center %d", where, i, ps.Center)
							}
							return true
						})
						if err != nil {
							t.Fatal(err)
						}
					}
					sort.Slice(all, func(a, b int) bool { return all[a].Center < all[b].Center })
					merged := core.DedupSubgraphs(all, &stats)
					core.SortSubgraphs(merged)
					if !reflect.DeepEqual(merged, want.Subgraphs) {
						t.Fatalf("%s: merged slices diverge from Match", where)
					}
					if stats != want.Stats {
						t.Fatalf("%s: merged stats %+v, Match %+v", where, stats, want.Stats)
					}
				}
			}
		}
	}
}

// TestSliceBypassesResultCache: a sliced query after a cached unsliced one
// returns only its slice, and neither reads nor writes the cache.
func TestSliceBypassesResultCache(t *testing.T) {
	g := generator.Synthetic(120, 1.4, 2, 9)
	e := New(g, Config{Workers: 2})
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 3})
	p := plan.NewPlanner()
	full := mustMatch(t, e, q, planned(QueryOptions{}, p, &obs.QueryStats{}))
	var hit obs.QueryStats
	mustMatch(t, e, q, planned(QueryOptions{}, p, &hit))
	if hit.PlanCacheOutcome != plan.OutcomeHit || len(full.Subgraphs) < 2 {
		t.Fatalf("setup: repeat was %q with %d matches; want a cache hit on several", hit.PlanCacheOutcome, len(full.Subgraphs))
	}
	const k = 2
	for i := 0; i < k; i++ {
		opts := QueryOptions{Slice: CenterSlice{Index: i, Of: k}}
		var tr obs.QueryStats
		got := mustMatch(t, e, q, planned(opts, p, &tr))
		if tr.PlanCacheOutcome != "" {
			t.Fatalf("slice %d consulted the cache: %q", i, tr.PlanCacheOutcome)
		}
		if want := mustMatch(t, e, q, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("slice %d with a warm cache differs from one without", i)
		}
		for _, ps := range got.Subgraphs {
			if int(ps.Center)%k != i {
				t.Fatalf("slice %d answered center %d", i, ps.Center)
			}
		}
	}
	var again obs.QueryStats
	if mustMatch(t, e, q, planned(QueryOptions{}, p, &again)); again.PlanCacheOutcome != plan.OutcomeHit {
		t.Fatalf("the unsliced entry did not survive the sliced queries: %q", again.PlanCacheOutcome)
	}
}
