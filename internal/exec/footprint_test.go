package exec_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/simulation"
)

// warmScratch runs s through every role a pooled scratch takes on, as a
// plain and as a Match+ request of core.MatchCtx would: the request's global
// dual simulation (DualIn) and center list, and a worker's restricted builds
// and evaluations. Roles rotate in the pool, so s takes each in turn, with a
// second scratch in the other.
func warmScratch(s *exec.Scratch, g *graph.Graph, qs []*graph.Graph) {
	other := new(exec.Scratch)
	plus := core.Options{DualFilter: true, ConnectivityPruning: true}
	for i, q := range qs {
		req, worker := s, other
		if i%2 == 1 {
			req, worker = other, s
		}
		dq, _ := graph.Diameter(q)
		cand := g.NodesLabeledIn(q)
		req.Centers = cand.AppendTo(req.Centers[:0])
		for _, c := range req.Centers[:min(len(req.Centers), 64)] {
			ball := worker.Balls.BuildRestricted(g, c, dq, cand)
			core.EvalPreparedBallIn(q, ball, c, core.Options{}, nil, &worker.Sim)
		}
		rel, ok, err := simulation.DualIn(context.Background(), q, g, &req.Sim)
		if err != nil || !ok {
			continue
		}
		cand = rel.DataNodesIn(g.NumNodes(), &req.Sim)
		req.Centers = cand.AppendTo(req.Centers[:0])
		for _, c := range req.Centers {
			ball := worker.Balls.BuildRestricted(g, c, dq, cand)
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
// the relation's and the spare sets, |V|/8 bytes each — and everything else
// is sized to the balls and candidates it has met: ≈1.4 bytes a node in all
// at 50k nodes. A per-node int32 array in the ball builder held 4 more
// (≈5.5 in all).
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

// TestReleasedScratchForgetsItsGraph: a request scratch that ran a global
// pass and built a kept graph holds no reference to the data graph once
// released, although a worker's last view still points into it. A live
// store publishes a graph version per update batch; a scratch that kept one
// alive would keep every page the store has rewritten since. And once the
// worker forgets too, as a pool worker does when it leaves a run, nothing
// keeps the released request scratch's kept graph alive: a worker holds its
// scratch for good.
func TestReleasedScratchForgetsItsGraph(t *testing.T) {
	g := generator.Synthetic(2000, 1.2, 20, 1)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 3})
	dq, _ := graph.Diameter(q)
	req, worker := exec.GetScratch(), new(exec.Scratch)
	rel, ok, err := simulation.DualIn(context.Background(), q, g, &req.Sim)
	if err != nil || !ok {
		t.Fatalf("the sampled pattern has no dual match: %v", err)
	}
	req.Centers = req.Sim.Matched(req.Centers[:0])
	kg := req.Balls.Kept(g, req.Centers, dq)
	for _, c := range req.Centers {
		core.EvalPreparedBallIn(q, worker.Balls.View(kg, c, dq), c, core.Options{}, rel, &worker.Sim)
	}
	alive, kept := weak.Make(g), weak.Make(kg)
	kg = nil
	req.Release()
	// What a pool worker does at the end of its stint in a run.
	worker.Balls.Forget()
	worker.Sim.Forget()
	runtime.GC()
	runtime.GC() // the second collection empties the pool's victim cache
	if alive.Value() != nil {
		t.Fatal("a released scratch keeps its data graph alive")
	}
	if kept.Value() != nil {
		t.Fatal("a worker scratch that forgot keeps the released request scratch's kept graph alive")
	}
	runtime.KeepAlive(worker)
}

// TestPoolWorkerForgetsItsRun: a pool worker that evaluated views of a
// request's kept graph lets go of them when it leaves the run, so the kept
// graph dies with the released request scratch although the worker keeps
// its own scratch for good.
func TestPoolWorkerForgetsItsRun(t *testing.T) {
	g := generator.Synthetic(2000, 1.2, 20, 1)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 3})
	dq, _ := graph.Diameter(q)
	for attempt := 0; ; attempt++ {
		if attempt == 50 {
			t.Skip("no pool worker joined a run in 50 attempts")
		}
		req := exec.GetScratch()
		rel, ok, err := simulation.DualIn(context.Background(), q, g, &req.Sim)
		if err != nil || !ok {
			t.Fatalf("the sampled pattern has no dual match: %v", err)
		}
		req.Centers = req.Sim.Matched(req.Centers[:0])
		if len(req.Centers) < 2 {
			t.Fatalf("%d centers: a run of one position offers no worker", len(req.Centers))
		}
		kg := req.Balls.Kept(g, req.Centers, dq)
		var mu sync.Mutex
		participants := map[*exec.Scratch]bool{}
		err = exec.RunOrdered(context.Background(), exec.Options{Workers: 2}, len(req.Centers),
			func(s *exec.Scratch, pos int) bool {
				mu.Lock()
				participants[s] = true
				mu.Unlock()
				// The caller offers the run before each claim: a short
				// evaluation gives a worker that parks late its chance.
				time.Sleep(100 * time.Microsecond)
				c := req.Centers[pos]
				pg, _ := core.EvalPreparedBallIn(q, s.Balls.View(kg, c, dq), c, core.Options{}, rel, &s.Sim)
				return pg != nil
			},
			func(int, bool) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		helped := len(participants) > 1
		kept := weak.Make(kg)
		kg, rel, participants = nil, nil, nil
		req.Release()
		if !helped {
			continue
		}
		runtime.GC()
		runtime.GC() // the second collection empties the pool's victim cache
		if kept.Value() != nil {
			t.Fatal("a pool worker keeps the kept graph of a run it left alive")
		}
		return
	}
}
