package core

import (
	"math"
	"sort"

	"repro/internal/graph"
)

// The paper's future work (Section 6) asks for "metrics to rank matches
// found by strong simulation, to return top-ranked matches only". This file
// provides that layer: scoring functions over perfect subgraphs and a TopK
// selector.

// Metric scores a perfect subgraph; higher is better.
type Metric func(q, g *graph.Graph, ps *PerfectSubgraph) float64

// ScoreCompactness prefers matches that stay close to the size of the
// pattern itself: a perfect subgraph with exactly one candidate per pattern
// node scores 1, looser matches score toward 0. This mirrors the paper's
// observation that tight matches (the ones isomorphism would find) are the
// most interpretable.
func ScoreCompactness(q, g *graph.Graph, ps *PerfectSubgraph) float64 {
	if len(ps.Nodes) == 0 {
		return 0
	}
	return float64(q.NumNodes()) / float64(len(ps.Nodes))
}

// ScoreDensity prefers matches whose edge density tracks the pattern's:
// the score is the ratio of the smaller to the larger edges-per-node
// figure, in (0,1].
func ScoreDensity(q, g *graph.Graph, ps *PerfectSubgraph) float64 {
	if len(ps.Nodes) == 0 || q.NumNodes() == 0 {
		return 0
	}
	dq := float64(q.NumEdges()) / float64(q.NumNodes())
	dg := float64(len(ps.Edges)) / float64(len(ps.Nodes))
	if dq == 0 && dg == 0 {
		return 1
	}
	if dq == 0 || dg == 0 {
		return 0
	}
	return math.Min(dq, dg) / math.Max(dq, dg)
}

// ScoreSelectivity prefers matches whose per-pattern-node candidate sets
// are small: score 1 when every pattern node has exactly one match inside
// the subgraph (an isomorphism-like match).
func ScoreSelectivity(q, g *graph.Graph, ps *PerfectSubgraph) float64 {
	total := 0
	for u := int32(0); u < int32(q.NumNodes()); u++ {
		n := len(ps.Rel[u])
		if n == 0 {
			return 0
		}
		total += n
	}
	return float64(q.NumNodes()) / float64(total)
}

// DefaultMetric blends compactness, density and selectivity equally.
func DefaultMetric(q, g *graph.Graph, ps *PerfectSubgraph) float64 {
	return (ScoreCompactness(q, g, ps) + ScoreDensity(q, g, ps) + ScoreSelectivity(q, g, ps)) / 3
}

// Ranked pairs a perfect subgraph with its score.
type Ranked struct {
	*PerfectSubgraph
	Score float64
}

// TopK returns the k best perfect subgraphs under the metric (nil =
// DefaultMetric), best first; ties break toward smaller subgraphs and then
// canonical order, so the ranking is deterministic. k ≤ 0 ranks everything.
func (r *Result) TopK(q, g *graph.Graph, k int, metric Metric) []Ranked {
	if metric == nil {
		metric = DefaultMetric
	}
	out := make([]Ranked, 0, len(r.Subgraphs))
	for _, ps := range r.Subgraphs {
		out = append(out, Ranked{PerfectSubgraph: ps, Score: metric(q, g, ps)})
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if len(a.Nodes) != len(b.Nodes) {
			return len(a.Nodes) < len(b.Nodes)
		}
		return signatureLess(a.PerfectSubgraph, b.PerfectSubgraph)
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}
