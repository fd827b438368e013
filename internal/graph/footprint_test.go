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
// of gap-encoded rows holds ≈2.2 bytes per entry each way (≈4.4 per edge)
// plus 4 per node and direction of offsets; labels, ranks, label rows and
// signatures add ≈30 per node. At 50k nodes and ≈8.7 edges a node that is
// ≈8.8 bytes an edge (≈8.1 at 100k nodes); int32 targets held ≈12.4
// (≈11.8), per-row slices behind 24-byte headers ≈18.0 (≈16.8).
func TestFootprintPerEdge(t *testing.T) {
	const bound = 9.5
	got := bytesPerEdge(50000)
	t.Logf("%.2f B/edge", got)
	if got > bound {
		t.Fatalf("a 50k-node graph holds %.2f bytes per edge, want ≤ %.1f: rows are stored wider than their gaps, or something keeps per-row state again", got, bound)
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
