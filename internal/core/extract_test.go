package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/simulation"
)

// extractByDefinition is ExtractMaxPG read straight off the paper's
// definitions: materialise the match graph w.r.t. rel, take the center's
// component, and translate it to parent ids, sorting everything.
func extractByDefinition(q *graph.Graph, ball *graph.Ball, rel simulation.Relation, center int32) *PerfectSubgraph {
	mg := simulation.BuildMatchGraph(q, ball.G, rel)
	nodes, edges, ok := mg.ComponentOf(ball.Center)
	if !ok {
		return nil
	}
	inComp := make(map[int32]bool, len(nodes))
	ps := &PerfectSubgraph{Center: center, Rel: make([][]int32, len(rel))}
	ps.Nodes = make([]int32, len(nodes))
	for i, v := range nodes {
		inComp[v] = true
		ps.Nodes[i] = ball.Orig[v]
	}
	sort.Slice(ps.Nodes, func(i, j int) bool { return ps.Nodes[i] < ps.Nodes[j] })
	ps.Edges = make([][2]int32, len(edges))
	for i, e := range edges {
		ps.Edges[i] = [2]int32{ball.Orig[e[0]], ball.Orig[e[1]]}
	}
	sort.Slice(ps.Edges, func(i, j int) bool {
		if ps.Edges[i][0] != ps.Edges[j][0] {
			return ps.Edges[i][0] < ps.Edges[j][0]
		}
		return ps.Edges[i][1] < ps.Edges[j][1]
	})
	for u := range rel {
		var matches []int32
		rel[u].ForEach(func(v int32) {
			if inComp[v] {
				matches = append(matches, ball.Orig[v])
			}
		})
		sort.Slice(matches, func(i, j int) bool { return matches[i] < matches[j] })
		ps.Rel[u] = matches
	}
	return ps
}

// TestExtractMaxPGIsMatchGraphComponent: on random balls, patterns and
// relations (any relation, not only dual simulations, so every shape of
// match graph turns up), the map-free extraction equals the definition's —
// nodes, edges and relation rows, nil rows and the empty edge list
// included. The run must meet a matched center with no match edge, a data
// edge that serves two pattern edges, and an edge between two matched nodes
// that serves none.
func TestExtractMaxPGIsMatchGraphComponent(t *testing.T) {
	var balls graph.BallScratch
	var sim simulation.Scratch
	var compared, found, singletons, doubled, unserved int
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		table := graph.NewLabels()
		labels := 1 + rng.Intn(3)
		g := diffGraph(rng, table, 10+rng.Intn(60), rng.Intn(200), labels, false, rng.Intn(2) == 0)
		nq := 1 + rng.Intn(5)
		q := diffGraph(rng, table, nq, rng.Intn(2*nq+1), labels, true, rng.Intn(3) == 0)
		center := int32(rng.Intn(g.NumNodes()))
		var ball *graph.Ball
		if trial%2 == 0 {
			ball = graph.NewBall(g, center, 1+rng.Intn(3))
		} else {
			ball = balls.BuildRestricted(g, center, 1+rng.Intn(3), nil)
		}
		bg := ball.G
		density := 0.2 + 0.7*rng.Float64()
		rel := sim.Relation(q.NumNodes(), bg.NumNodes())
		for u := range rel {
			for v := int32(0); v < int32(bg.NumNodes()); v++ {
				if rng.Float64() < density {
					rel[u].Add(v)
				}
			}
		}
		if trial%5 == 0 {
			rel[rng.Intn(len(rel))].Add(ball.Center)
		}
		want := extractByDefinition(q, ball, rel, center)
		got := extractMaxPG(q, ball, rel, center, &sim)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: extraction differs\ndefinition: %+v\nmap-free:   %+v", trial, want, got)
		}
		compared++
		if want == nil {
			continue
		}
		found++
		if len(want.Nodes) == 1 && len(want.Edges) == 0 {
			singletons++
		}
		matched := rel.DataNodes(bg.NumNodes())
		bg.Edges(func(v, w int32) {
			if !matched.Contains(v) || !matched.Contains(w) {
				return
			}
			serves := 0
			q.Edges(func(u, u2 int32) {
				if rel[u].Contains(v) && rel[u2].Contains(w) {
					serves++
				}
			})
			switch {
			case serves >= 2:
				doubled++
			case serves == 0:
				unserved++
			}
		})
	}
	t.Logf("%d extractions compared, %d found: %d singletons, %d edges serving two pattern edges, %d serving none",
		compared, found, singletons, doubled, unserved)
	if singletons == 0 || doubled == 0 || unserved == 0 {
		t.Fatalf("vacuous run: %d singletons, %d doubly-serving edges, %d unserving edges",
			singletons, doubled, unserved)
	}
}
