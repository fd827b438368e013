package graph_test

import (
	"testing"

	"repro/internal/generator"
	"repro/internal/graph"
)

// BenchmarkBallConstructionRestricted builds radius-3 balls on a reused
// scratch the way the serving path does: restricted to the candidate set of
// an 8-node sampled pattern (the nodes carrying one of its labels), so only
// the BFS still scales with the whole ball. A 20k-node graph, 50 labels.
func BenchmarkBallConstructionRestricted(b *testing.B) {
	g := generator.Synthetic(20000, 1.2, 50, 7)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 8, Alpha: 1.2, Seed: 9})
	cand := g.NodesLabeledIn(q)
	var s graph.BallScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BuildRestricted(g, int32(i%g.NumNodes()), 3, cand)
	}
}
