// Package approx implements the two approximate-matching baselines of the
// paper's experimental study (Section 5): TALE (Tian & Patel, ICDE 2008),
// an index-based approximate matcher that tolerates missing neighbors, and
// MCS, which accepts a candidate subgraph Gs when the approximate maximum
// common subgraph of Q and Gs covers at least 70% of the larger graph
// (threshold from Section 5, approximation in the spirit of Kann, STACS
// 1992).
//
// Both are reimplemented from the published descriptions in Go; the paper
// ran the authors' original implementations. The experiments only rely on
// their qualitative behaviour — both return more and larger match sets than
// exact isomorphism — which these reimplementations preserve.
package approx

import (
	"math/bits"
	"sync"

	"repro/internal/graph"
)

// nhEntry is one node's neighborhood index record, TALE's NH-index: label,
// degree, a bitmap summarizing neighbor labels, and the number of edges
// among the node's neighbors (neighbor connections).
type nhEntry struct {
	label    int32
	degree   int32
	nbLabels uint64 // 64-bit neighbor-label Bloom signature
	nbConn   int32
}

// nhIndex is the NH-index of a graph.
type nhIndex struct {
	g       *graph.Graph
	entries []nhEntry
}

// labelBit delegates to the graph's signature bit so the approximate path
// (TALE's NH-index) and the exact path (graph.Sig) summarize labels
// identically — one hash to reason about, one set of collision semantics.
func labelBit(label int32) uint64 { return graph.LabelBit(label) }

// nhMemo is a one-slot version-aware memo for the data graph's NH-index.
// Graphs are immutable once built — a live store publishes each version as
// a fresh *graph.Graph — so pointer identity is a sound version key: a
// repeated TALE query against the current version reuses the index, and a
// newly published version misses and rebuilds. One slot bounds retention
// (the slot holds the latest-queried graph only, not every version ever
// seen).
var nhMemo struct {
	mu  sync.Mutex
	g   *graph.Graph
	idx *nhIndex
}

// nhIndexFor returns the (possibly memoized) NH-index of a data graph.
// Query graphs are tiny and per-request; callers index them with
// buildNHIndex directly.
func nhIndexFor(g *graph.Graph) *nhIndex {
	nhMemo.mu.Lock()
	if nhMemo.g == g {
		idx := nhMemo.idx
		nhMemo.mu.Unlock()
		return idx
	}
	nhMemo.mu.Unlock()
	idx := buildNHIndex(g)
	nhMemo.mu.Lock()
	nhMemo.g, nhMemo.idx = g, idx
	nhMemo.mu.Unlock()
	return idx
}

// buildNHIndex computes the index in O(Σ_v deg(v)²) worst case (neighbor
// connection counting); data graphs in the experiments are sparse.
func buildNHIndex(g *graph.Graph) *nhIndex {
	idx := &nhIndex{g: g, entries: make([]nhEntry, g.NumNodes())}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		e := nhEntry{label: g.Label(v), degree: int32(g.Degree(v))}
		nbs := neighborhood(g, v)
		for _, w := range nbs {
			e.nbLabels |= labelBit(g.Label(w))
		}
		// Count edges among neighbors (either direction, deduplicated by
		// ordered pair).
		inNb := make(map[int32]bool, len(nbs))
		for _, w := range nbs {
			inNb[w] = true
		}
		for _, w := range nbs {
			for _, x := range g.Out(w) {
				if x != v && inNb[x] {
					e.nbConn++
				}
			}
		}
		idx.entries[v] = e
	}
	return idx
}

// neighborhood returns the distinct undirected neighbors of v.
func neighborhood(g *graph.Graph, v int32) []int32 {
	seen := make(map[int32]bool, g.Degree(v))
	var out []int32
	for _, w := range g.Out(v) {
		if w != v && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	for _, w := range g.In(v) {
		if w != v && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// missingNeighborLabels estimates how many of q's neighbor labels are
// absent around v, via the Bloom signatures.
func missingNeighborLabels(qe, ge nhEntry) int {
	return bits.OnesCount64(qe.nbLabels &^ ge.nbLabels)
}
