package exec_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/simulation"
)

// warmScratch runs s through every role a pooled scratch takes on the served
// path, as a plain and as a Match+ request would: the request's candidate
// set (NodesLabeledInto) and global dual simulation (DualIn), and a worker's
// restricted builds and evaluations. Roles rotate in the pool, so s takes
// each in turn, with a second scratch in the other.
func warmScratch(s *exec.Scratch, g *graph.Graph, qs []*graph.Graph) {
	other := new(exec.Scratch)
	plus := core.Options{DualFilter: true, ConnectivityPruning: true}
	for i, q := range qs {
		req, worker := s, other
		if i%2 == 1 {
			req, worker = other, s
		}
		dq, _ := graph.Diameter(q)
		cand := g.NodesLabeledInto(q, &req.Cand)
		req.Centers = cand.AppendTo(req.Centers[:0])
		for _, c := range req.Centers[:min(len(req.Centers), 64)] {
			ball := worker.Balls.BuildRestricted(g, c, dq, cand, req.Centers)
			core.EvalPreparedBallIn(q, ball, c, core.Options{}, nil, &worker.Sim)
		}
		rel, ok, err := simulation.DualIn(context.Background(), q, g, &req.Sim)
		if err != nil || !ok {
			continue
		}
		cand = rel.DataNodesIn(g.NumNodes(), &req.Sim)
		req.Centers = cand.AppendTo(req.Centers[:0])
		for _, c := range req.Centers {
			ball := worker.Balls.BuildRestricted(g, c, dq, cand, req.Centers)
			core.EvalPreparedBallIn(q, ball, c, plus, rel, &worker.Sim)
		}
	}
}

// scratchBytesPerNode returns the live heap one warmed exec.Scratch holds
// on the harness's graph shape at n nodes, per graph node.
func scratchBytesPerNode(n int) float64 {
	g := generator.Synthetic(n, 1.2, 200, 1)
	var qs []*graph.Graph
	for seed := int64(1); len(qs) < 24; seed++ {
		q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 2 + len(qs)%4, Alpha: 1.2, Seed: seed})
		if _, connected := graph.Diameter(q); connected {
			qs = append(qs, q)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := new(exec.Scratch)
	warmScratch(s, g, qs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	runtime.KeepAlive(g)
	runtime.KeepAlive(qs)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// TestScratchRetainedBytesPerNode is the footprint guard of a pooled
// scratch. Its per-node state is bitsets only — the ball builder's seen set,
// the request's candidate set, the relation's and the spare sets, |V|/8
// bytes each — and everything else is sized to the balls and candidates it
// has met: ≈1.4 bytes a node in all at 50k nodes. A per-node int32 array in
// the ball builder held 4 more (≈5.5 in all).
func TestScratchRetainedBytesPerNode(t *testing.T) {
	const bound = 2.0
	got := scratchBytesPerNode(50000)
	t.Logf("%.2f B/node", got)
	if got > bound {
		t.Fatalf("a warmed scratch holds %.2f bytes per graph node, want ≤ %.1f: something keeps per-node state again", got, bound)
	}
}

// BenchmarkScratchFootprint reports what TestScratchRetainedBytesPerNode
// bounds, at the harness's 100k nodes.
func BenchmarkScratchFootprint(b *testing.B) {
	var perNode float64
	for i := 0; i < b.N; i++ {
		perNode = scratchBytesPerNode(100000)
	}
	b.ReportMetric(perNode, "B/node")
}
