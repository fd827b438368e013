package graph_test

import (
	"runtime"
	"testing"

	"repro/internal/generator"
)

// bytesPerEdge returns the live heap a Builder-built Synthetic graph of n
// nodes holds — adjacency both ways, labels, label rows, ranks and
// signatures — per directed edge.
func bytesPerEdge(n int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := generator.Synthetic(n, 1.2, 200, 1)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEdge := float64(after.HeapAlloc-before.HeapAlloc) / float64(g.NumEdges())
	runtime.KeepAlive(g)
	return perEdge
}

// TestFootprintPerEdge is the footprint guard of the graph layout. Paged CSR
// holds 8 bytes per edge (4 each way) plus 4 per node and direction of
// offsets; labels, ranks, label rows and signatures add ≈28 per node. At 50k
// nodes and ≈8.7 edges a node that is ≈12.4 bytes an edge (≈11.8 at 100k
// nodes); per-row slices behind 24-byte headers held ≈18.0 (≈16.8).
func TestFootprintPerEdge(t *testing.T) {
	const bound = 13.5
	got := bytesPerEdge(50000)
	t.Logf("%.2f B/edge", got)
	if got > bound {
		t.Fatalf("a 50k-node graph holds %.2f bytes per edge, want ≤ %.1f: something keeps per-row state again", got, bound)
	}
}

// BenchmarkFootprint reports what TestFootprintPerEdge bounds, at the
// harness's 100k nodes.
func BenchmarkFootprint(b *testing.B) {
	var perEdge float64
	for i := 0; i < b.N; i++ {
		perEdge = bytesPerEdge(100000)
	}
	b.ReportMetric(perEdge, "B/edge")
}
