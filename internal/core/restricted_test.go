package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/simulation"
)

// diffGraph builds a random graph of n nodes over the first `labels` letters
// with about `edges` edges. selfLoops adds a few (v, v) edges; the last node
// never gets an edge, so every data graph has an isolated center.
func diffGraph(rng *rand.Rand, table *graph.Labels, n, edges, labels int, connected, selfLoops bool) *graph.Graph {
	b := graph.NewBuilder(table)
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('A' + rng.Intn(labels))))
	}
	span := n - 1 // endpoints are drawn from [0, span): node n-1 stays isolated
	if connected {
		span = n
		for i := 1; i < n; i++ {
			p := int32(rng.Intn(i))
			if rng.Intn(2) == 0 {
				_ = b.AddEdge(p, int32(i))
			} else {
				_ = b.AddEdge(int32(i), p)
			}
		}
	}
	for i := 0; i < edges && span > 0; i++ {
		_ = b.AddEdge(int32(rng.Intn(span)), int32(rng.Intn(span)))
	}
	if selfLoops {
		for i := 0; i < 1+n/10 && span > 0; i++ {
			v := int32(rng.Intn(span))
			_ = b.AddEdge(v, v)
		}
	}
	return b.Build()
}

// TestRestrictedBallDifferential pins the equivalence the serving path rests
// on: a ball built restricted to the query's candidate set and evaluated on
// scratch state yields, for every center, exactly what the reference pair —
// graph.NewBall's full induced ball and EvalPreparedBallIn with no scratch —
// yields: the same subgraph (nodes, edges, relation) and the same work
// counters. The reference shares no construction code with the restricted
// builder (map-based BFS, Builder-built subgraph), so the kernel never
// vouches for itself. Centers outside the candidate set are evaluated too:
// a restricted ball keeps its center whatever keep holds.
func TestRestrictedBallDifferential(t *testing.T) {
	optionSets := []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"plus", PlusOptions()},
		{"dualfilter", Options{DualFilter: true}}, // the border-seeding path (Prop. 5)
		{"dualfilter+minq", Options{DualFilter: true, MinimizeQuery: true}},
	}
	shapes := []struct{ n, edges, labels int }{
		{1, 0, 1}, {14, 20, 1}, {30, 70, 2}, {60, 80, 3}, {90, 300, 3}, {120, 260, 5}, {70, 40, 6},
	}
	// One scratch pair across every graph, pattern and radius: stale state
	// carried from one build or evaluation into the next would show here.
	var balls graph.BallScratch
	var sim simulation.Scratch
	var compared, matched, outside int
	for si, shape := range shapes {
		for nq := 1; nq <= 5; nq++ {
			rng := rand.New(rand.NewSource(int64(1000*si + nq)))
			table := graph.NewLabels()
			g := diffGraph(rng, table, shape.n, shape.edges, shape.labels, false, true)
			q := diffGraph(rng, table, nq, rng.Intn(nq+1), shape.labels, true, rng.Intn(3) == 0)
			dq, connected := graph.Diameter(q)
			if !connected {
				t.Fatalf("shape %d nq %d: generated pattern is disconnected", si, nq)
			}
			for _, radius := range []int{dq, 1, dq + 1} {
				for _, os := range optionSets {
					qEff := q
					if os.opts.MinimizeQuery {
						qEff, _ = MinimizeQuery(q)
					}
					var global simulation.Relation
					cand := g.NodesLabeledIn(qEff)
					if os.opts.DualFilter {
						rel, ok := simulation.Dual(qEff, g)
						if !ok {
							continue // Q ⊀D G: Match answers before any ball is built
						}
						global, cand = rel, rel.DataNodes(g.NumNodes())
					}
					for v := int32(0); v < int32(g.NumNodes()); v++ {
						ctx := fmt.Sprintf("shape %d nq %d radius %d %s center %d", si, nq, radius, os.name, v)
						want, wantStats := EvalPreparedBallIn(qEff, graph.NewBall(g, v, radius), v, os.opts, global, nil)
						ball := balls.BuildRestricted(g, v, radius, cand)
						if ball.Center < 0 || ball.Orig[ball.Center] != v {
							t.Fatalf("%s: restricted ball lost its center (id %d)", ctx, ball.Center)
						}
						got, gotStats := EvalPreparedBallIn(qEff, ball, v, os.opts, global, &sim)
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s: subgraph differs\nfull ball:  %+v\nrestricted: %+v", ctx, want, got)
						}
						if wantStats != gotStats {
							t.Fatalf("%s: stats differ: full ball %+v, restricted %+v", ctx, wantStats, gotStats)
						}
						compared++
						if want != nil {
							matched++
						}
						if !cand.Contains(v) {
							outside++
							if want != nil {
								t.Fatalf("%s: a center outside the candidate set matched", ctx)
							}
						}
					}
				}
			}
		}
	}
	if matched == 0 || outside == 0 {
		t.Fatalf("vacuous run: %d balls compared, %d matching, %d centers outside the candidate set", compared, matched, outside)
	}
	t.Logf("%d balls compared, %d matching, %d centers outside the candidate set", compared, matched, outside)
}
