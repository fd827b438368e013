package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/graph"
)

// randomGraph draws n nodes over the first `labels` names of a shared
// alphabet and m directed edges with nothing excluded: self-loops and both
// directions between one pair occur.
func randomGraph(rng *rand.Rand, lt *graph.Labels, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(lt)
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("L%d", rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		_ = b.AddEdge(rng.Int31n(int32(n)), rng.Int31n(int32(n)))
	}
	return b.Build()
}

// randomPattern draws a connected pattern of nq nodes: a random tree with
// random edge directions, then up to nq more edges anywhere — cycles,
// self-loops, antiparallel pairs — over so few labels that they repeat.
func randomPattern(rng *rand.Rand, lt *graph.Labels, nq, labels int) *graph.Graph {
	b := graph.NewBuilder(lt)
	for i := 0; i < nq; i++ {
		b.AddNode(fmt.Sprintf("L%d", rng.Intn(labels)))
	}
	for v := int32(1); v < int32(nq); v++ {
		u := rng.Int31n(v)
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		_ = b.AddEdge(u, v)
	}
	for i := rng.Intn(nq + 1); i > 0; i-- {
		_ = b.AddEdge(rng.Int31n(int32(nq)), rng.Int31n(int32(nq)))
	}
	return b.Build()
}

// TestPruneNecessity is the soundness bar of both Prune stages: on
// random graphs from 2 to 200 labels, for random and sampled patterns at
// radii below, at and above dQ, every center whose ball has a perfect
// subgraph survives. It also demands that the anchor stage does prune
// somewhere along the way, so the property is not held vacuously.
func TestPruneNecessity(t *testing.T) {
	var anchored, matching int
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		labels := []int{2, 3, 5, 12, 200}[seed%5]
		n := 20 + rng.Intn(70)
		lt := graph.NewLabels()
		g := randomGraph(rng, lt, n, n+rng.Intn(4*n), labels)
		ix := NewIndex(g)
		for trial := 0; trial < 6; trial++ {
			var q *graph.Graph
			if trial%2 == 0 {
				q = randomPattern(rng, lt, 2+rng.Intn(4), min(labels, 3))
			} else {
				q = generator.SamplePattern(g, generator.PatternOptions{Nodes: 2 + rng.Intn(4), Alpha: 1.3, Seed: rng.Int63()})
			}
			dq, connected := graph.Diameter(q)
			if !connected || q.NumNodes() == 0 {
				continue
			}
			for _, radius := range []int{1, dq, dq + 2} {
				if radius < 1 {
					continue
				}
				all := make([]int32, n)
				for i := range all {
					all[i] = int32(i)
				}
				var st PruneStats
				kept := graph.SetOf(n, ix.Prune(q, radius, all, &st)...)
				if st.Before != n || kept.Len() != n-st.PrunedDegree-st.PrunedAnchor {
					t.Fatalf("seed %d: stats %+v do not add up to %d kept of %d", seed, st, kept.Len(), n)
				}
				anchored += st.PrunedAnchor
				for v := int32(0); v < int32(n); v++ {
					ps, _ := core.EvalPreparedBallIn(q, graph.NewBall(g, v, radius), v, core.Options{}, nil, nil)
					if ps == nil {
						continue
					}
					matching++
					if !kept.Contains(v) {
						t.Fatalf("seed %d (%d labels) trial %d radius %d (dQ %d): center %d has a perfect subgraph but was pruned (%+v)\npattern:\n%s",
							seed, labels, trial, radius, dq, v, st, graph.FormatString(q))
					}
				}
			}
		}
	}
	if anchored == 0 || matching == 0 {
		t.Fatalf("vacuous run: %d centers pruned by the anchor stage, %d matching centers", anchored, matching)
	}
}

// anchoredBare is the anchor check with no signature in front of it, as
// Anchored ran before the graph carried signatures: a center is kept by the
// first pattern node of its label it anchors, or when no pattern node
// carries its label.
func anchoredBare(g, q *graph.Graph, radius int, centers []int32) []int32 {
	dq, _ := graph.Diameter(q)
	rounds := max(1, min(radius, dq))
	a := anchor{q: q, g: g}
	var kept []int32
	for _, c := range centers {
		a.budget = anchorBudget
		matched, ok := false, false
		for u := int32(0); u < int32(q.NumNodes()) && !ok; u++ {
			if q.Label(u) == g.Label(c) {
				matched, ok = true, a.holds(u, c, rounds)
			}
		}
		if ok || !matched {
			kept = append(kept, c)
		}
	}
	return kept
}

// TestAnchoredEqualsPrune: Anchored and Prune keep the same centers, and
// exactly those the bare anchor check keeps — the signatures in front of it
// change what a center costs, not whether it survives, since the first exact
// round implies the label-pair condition — on random graphs and patterns,
// one-node patterns with and without a self-loop included.
func TestAnchoredEqualsPrune(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		labels := []int{1, 2, 3, 12, 80}[seed%5]
		n := 20 + rng.Intn(70)
		lt := graph.NewLabels()
		g := randomGraph(rng, lt, n, n+rng.Intn(4*n), labels)
		ix := NewIndex(g)
		for trial := 0; trial < 6; trial++ {
			q := randomPattern(rng, lt, 1+rng.Intn(4), min(labels, 3))
			dq, connected := graph.Diameter(q)
			if !connected {
				continue
			}
			for _, radius := range []int{dq, 1, dq + 2} {
				all := make([]int32, n)
				for i := range all {
					all[i] = int32(i)
				}
				pruned := slices.Clone(ix.Prune(q, radius, slices.Clone(all), new(PruneStats)))
				bare := anchoredBare(g, q, radius, all)
				if anchored := Anchored(g, q, radius, all); !slices.Equal(anchored, pruned) || !slices.Equal(anchored, bare) {
					t.Fatalf("seed %d trial %d radius %d (dQ %d): Anchored keeps %v, Prune %v, the bare check %v\npattern:\n%s",
						seed, trial, radius, dq, anchored, pruned, bare, graph.FormatString(q))
				}
			}
		}
	}
}

// TestPruneAnchorBudget: on hostile input the anchor check stops at its
// budget and keeps what it could not decide. Four layers of 60 one-label
// nodes, each wired to the whole next layer, against a directed 5-node path:
// the graph has no 5-node path, but refuting one from a layer-0 center means
// unfolding 60³ successors. A detached edge beside the layers is what the
// check does decide.
func TestPruneAnchorBudget(t *testing.T) {
	const layers, width = 4, 60
	lt := graph.NewLabels()
	b := graph.NewBuilder(lt)
	for i := 0; i < layers*width; i++ {
		b.AddNode("L")
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				_ = b.AddEdge(int32(l*width+i), int32((l+1)*width+j))
			}
		}
	}
	_ = b.AddEdge(b.AddNode("L"), b.AddNode("L"))
	g := b.Build()
	pb := graph.NewBuilder(lt)
	for i := 0; i < 5; i++ {
		pb.AddNode("L")
	}
	for i := int32(0); i < 4; i++ {
		_ = pb.AddEdge(i, i+1)
	}
	q := pb.Build()
	const radius = 6
	rounds, _ := graph.Diameter(q) // 4 < radius

	n := g.NumNodes()
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	var st PruneStats
	kept := graph.SetOf(n, NewIndex(g).Prune(q, radius, all, &st)...)
	if st.AnchorEntries > n*anchorBudget {
		t.Fatalf("examined %d adjacency entries for %d centers, budget %d each", st.AnchorEntries, n, anchorBudget)
	}

	for c := int32(0); c < layers*width; c++ {
		if !kept.Contains(c) {
			t.Fatalf("layered center %d was pruned; none can be decided within the budget", c)
		}
	}
	if st.PrunedAnchor != 2 {
		t.Fatalf("%d centers pruned by the anchor stage, want the detached edge's two", st.PrunedAnchor)
	}
	// What kept the layered centers is the budget, not the check: unbounded,
	// it refutes a layer-0 center as the path's head — at 60³ entries.
	a := anchor{q: q, g: g, budget: 1 << 30}
	if a.holds(0, 0, rounds) || 1<<30-a.budget <= anchorBudget {
		t.Fatalf("unbounded check of center 0: %d entries, want a refutation past the budget of %d", 1<<30-a.budget, anchorBudget)
	}
}

// BenchmarkPrunePlain is the standing-maintenance prefilter (the anchor
// check behind Anchored) on the harness's graph shape at a fifth of its
// size: label candidates of 64 sampled 2-4-node patterns through both
// stages. centers_left/op rising says a stage stopped
// pruning; entries/op rising says the anchor check started walking whole
// neighbourhoods.
func BenchmarkPrunePlain(b *testing.B) {
	g := generator.Synthetic(20000, 1.2, 200, 1)
	ix := NewIndex(g)
	rng := rand.New(rand.NewSource(1))
	type query struct {
		q       *graph.Graph
		radius  int
		centers []int32
	}
	var queries []query
	for len(queries) < 64 {
		nodes := 2 + len(queries)%3
		q := generator.SamplePattern(g, generator.PatternOptions{Nodes: nodes, Alpha: 1.2, Seed: rng.Int63()})
		if d, connected := graph.Diameter(q); connected && q.NumNodes() == nodes {
			queries = append(queries, query{q, d, g.NodesLabeledIn(q).Slice()})
		}
	}
	var buf []int32
	var left, entries int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qr := &queries[i%len(queries)]
		buf = append(buf[:0], qr.centers...)
		var st PruneStats
		left += len(ix.Prune(qr.q, qr.radius, buf, &st))
		entries += st.AnchorEntries
	}
	b.ReportMetric(float64(left)/float64(b.N), "centers_left/op")
	b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
}
