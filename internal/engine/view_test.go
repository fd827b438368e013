package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/graph"
)

// loopyGraph is a random graph of n nodes over labels labels with about e
// edges, a fifth of them closed into 2-cycles, a self-loop on every eighth
// node and a hub joined to a third of the graph: the shapes a view's BFS
// must get right, which the generator's graphs rarely have.
func loopyGraph(n, e, labels int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(nil)
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("L%d", rng.Intn(labels)))
	}
	for i := 0; i < e; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		_ = b.AddEdge(u, v)
		if i%5 == 0 {
			_ = b.AddEdge(v, u)
		}
	}
	for v := int32(0); v < int32(n); v += 8 {
		_ = b.AddEdge(v, v)
	}
	hub := int32(rng.Intn(n))
	for i := 0; i < n/3; i++ {
		_ = b.AddEdge(hub, int32(rng.Intn(n)))
		_ = b.AddEdge(int32(rng.Intn(n)), hub)
	}
	return b.Build()
}

// TestViewsMatchCoreProperty: the engine, whose balls are views of one kept
// graph a query, returns byte for byte the Result of core.MatchWith with the
// global filter on, whose balls are built one by one — subgraphs,
// relations, centers and stats — over graphs of 1 to 16 labels, at radii 0
// to 4 (0 is a one-node pattern's diameter), in both modes and at Workers 1
// and 2.
func TestViewsMatchCoreProperty(t *testing.T) {
	ctx := context.Background()
	compared, matched := 0, 0
	for _, labels := range []int{1, 2, 4, 8, 16} {
		graphs := []*graph.Graph{
			generator.Synthetic(150, 1.2, labels, int64(labels)),
			loopyGraph(120, 300, labels, int64(labels)),
		}
		for gi, g := range graphs {
			engines := []*Engine{New(g, Config{Workers: 1}), New(g, Config{Workers: 2})}
			for seed := int64(0); seed < 4; seed++ {
				nodes := 1 + int(seed)
				q := generator.SamplePattern(g, generator.PatternOptions{Nodes: nodes, Alpha: 1.2, Seed: seed + int64(100*labels+gi)})
				if q.NumNodes() == 0 {
					continue
				}
				if _, connected := graph.Diameter(q); !connected {
					continue
				}
				for _, radius := range []int{0, 1, 2, 3, 4} {
					for _, mode := range servedModes {
						opts := mode.opts
						opts.Radius = radius
						want, err := core.MatchWith(q, g, opts.coreOptions())
						if err != nil {
							t.Fatal(err)
						}
						for _, e := range engines {
							got, err := e.Match(ctx, q, opts)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("labels=%d graph %d seed %d r=%d %s workers=%d: engine %d subgraphs, stats %+v; core %d, stats %+v",
									labels, gi, seed, radius, mode.name, e.Workers(), got.Len(), got.Stats, want.Len(), want.Stats)
							}
							compared++
							if got.Len() > 0 {
								matched++
							}
						}
					}
				}
			}
		}
	}
	if matched < compared/4 {
		t.Fatalf("only %d of %d comparisons had matches; the property checks little", matched, compared)
	}
	t.Logf("%d comparisons, %d with matches", compared, matched)
}

// TestKeptGraphConcurrentReaders: every goroutine evaluating a query's balls
// reads the one kept graph the query built, while other queries build and
// read theirs. Several clients run queries of many balls each at four
// workers; each answer must be the sequential one. Under -race this is the
// check that building views only reads the kept graph.
func TestKeptGraphConcurrentReaders(t *testing.T) {
	g := loopyGraph(300, 900, 3, 11)
	type job struct {
		q    *graph.Graph
		opts QueryOptions
		want *core.Result
	}
	seq := New(g, Config{Workers: 1})
	var jobs []job
	for seed := int64(0); seed < 4; seed++ {
		q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 2 + int(seed), Alpha: 1.2, Seed: seed})
		for _, mode := range servedModes {
			for _, radius := range []int{0, 3} {
				opts := mode.opts
				opts.Radius = radius
				jobs = append(jobs, job{q: q, opts: opts, want: mustMatch(t, seq, q, opts)})
			}
		}
	}
	e := New(g, Config{Workers: 4})
	var wg sync.WaitGroup
	for client := 0; client < 4; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for rep := 0; rep < len(jobs); rep++ {
				j := jobs[(client+rep)%len(jobs)]
				got, err := e.Match(context.Background(), j.q, j.opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, j.want) {
					t.Errorf("client %d: %d subgraphs, stats %+v; sequentially %d, stats %+v",
						client, got.Len(), got.Stats, j.want.Len(), j.want.Stats)
					return
				}
			}
		}(client)
	}
	wg.Wait()
	balls := 0
	for _, j := range jobs {
		balls += j.want.Stats.BallsExamined
	}
	if balls < 20*len(jobs) {
		t.Fatalf("the queries evaluate %d balls in all; too few for workers to share a kept graph", balls)
	}
}
