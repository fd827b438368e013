// Package core implements the paper's primary contribution: graph pattern
// matching via strong simulation (Q ≺LD G). It provides the cubic-time
// algorithm Match of Fig. 3, the query minimization minQ of Fig. 4
// (Theorem 6), the dual-simulation ball filter dualFilter of Fig. 5, the
// connectivity-pruning optimization of Section 4.2, and Match+ combining
// all three optimizations.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/graph"
)

// PerfectSubgraph is one maximum perfect subgraph Gs ⊆ G w.r.t. a pattern Q
// (paper Section 2.2): a connected subgraph such that Q ≺D Gs with maximum
// match relation S, Gs is exactly the match graph w.r.t. S, and Gs fits in
// the ball Ĝ[Center, dQ].
type PerfectSubgraph struct {
	// Center is one ball center that produced this subgraph (the smallest
	// node id when several balls yield the same subgraph).
	Center int32
	// Nodes are the data nodes of Gs, ascending.
	Nodes []int32
	// Edges are the data edges of Gs, ascending.
	Edges [][2]int32
	// Rel is the match relation S: Rel[u] holds the sorted matches inside
	// Gs of pattern node u, for every node of the caller's original pattern
	// (even when matching ran on a minimized pattern); nil where u has none.
	Rel [][]int32
}

// Size returns |Gs| = |nodes| + |edges|.
func (ps *PerfectSubgraph) Size() int { return len(ps.Nodes) + len(ps.Edges) }

// appendSignature appends a canonical byte encoding of (Nodes, Edges) to
// buf, used to deduplicate subgraphs found from different ball centers (the
// paper's Θ is a set, Theorem 1).
func (ps *PerfectSubgraph) appendSignature(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ps.Nodes)))
	prev := int64(0)
	for _, v := range ps.Nodes {
		buf = binary.AppendUvarint(buf, uint64(int64(v)-prev))
		prev = int64(v)
	}
	for _, e := range ps.Edges {
		buf = binary.AppendUvarint(buf, uint64(e[0]))
		buf = binary.AppendUvarint(buf, uint64(e[1]))
	}
	return buf
}

// Signature returns an opaque canonical key for (Nodes, Edges): two perfect
// subgraphs carry the same key iff they are the same subgraph of G,
// regardless of which ball center produced them. Streaming consumers
// (internal/engine) use it to deduplicate matches incrementally.
func (ps *PerfectSubgraph) Signature() string {
	return string(ps.appendSignature(make([]byte, 0, 4*(len(ps.Nodes)+2*len(ps.Edges))+16)))
}

// Contains reports whether the subgraph contains data node v.
func (ps *PerfectSubgraph) Contains(v int32) bool {
	i := sort.Search(len(ps.Nodes), func(i int) bool { return ps.Nodes[i] >= v })
	return i < len(ps.Nodes) && ps.Nodes[i] == v
}

// Graph materializes Gs as a standalone graph (re-indexed); the second
// result maps its nodes back to data-graph ids.
func (ps *PerfectSubgraph) Graph(g *graph.Graph) (*graph.Graph, []int32) {
	b := graph.NewBuilder(g.Labels())
	toNew := make(map[int32]int32, len(ps.Nodes))
	for i, v := range ps.Nodes {
		b.AddNode(g.LabelName(v))
		toNew[v] = int32(i)
	}
	for _, e := range ps.Edges {
		_ = b.AddEdge(toNew[e[0]], toNew[e[1]])
	}
	return b.Build(), append([]int32(nil), ps.Nodes...)
}

// String renders a compact description.
func (ps *PerfectSubgraph) String() string {
	return fmt.Sprintf("perfect{center=%d |V|=%d |E|=%d}", ps.Center, len(ps.Nodes), len(ps.Edges))
}

// Stats counts the work performed by one Match run.
type Stats struct {
	// BallsExamined counts balls on which dual simulation actually ran.
	BallsExamined int
	// BallsSkipped counts centers rejected before any refinement: label
	// mismatch, global-filter miss, or pruned-away center.
	BallsSkipped int
	// PairsRemoved totals match-pair removals across all ball refinements.
	PairsRemoved int
	// Duplicates counts perfect subgraphs discarded because another center
	// already produced them.
	Duplicates int
	// MinimizedFrom records |Q| before minimization when it ran (0 = off).
	MinimizedFrom int
}

// Result is the outcome of matching a pattern against a data graph via
// strong simulation: the set Θ of maximum perfect subgraphs plus run
// statistics.
type Result struct {
	Subgraphs []*PerfectSubgraph
	Stats     Stats
}

// Len returns |Θ|, the number of distinct maximum perfect subgraphs.
func (r *Result) Len() int { return len(r.Subgraphs) }

// Empty reports whether no match was found.
func (r *Result) Empty() bool { return len(r.Subgraphs) == 0 }

// NodeUnion returns the set of data nodes appearing in any perfect
// subgraph — the paper's notion of "matches" when comparing algorithms
// (Section 5, closeness).
func (r *Result) NodeUnion(capacity int) *graph.NodeSet {
	s := graph.NewNodeSet(capacity)
	for _, ps := range r.Subgraphs {
		for _, v := range ps.Nodes {
			s.Add(v)
		}
	}
	return s
}

// MatchesOf returns the union of matches of one pattern node across all
// perfect subgraphs, ascending.
func (r *Result) MatchesOf(u int32) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, ps := range r.Subgraphs {
		for _, v := range ps.Rel[u] {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Maximal filters Θ down to subgraphs not strictly contained in another
// member (an analysis convenience beyond the paper: balls with nearby
// centers often produce nested perfect subgraphs).
func (r *Result) Maximal() []*PerfectSubgraph {
	var out []*PerfectSubgraph
	for i, ps := range r.Subgraphs {
		dominated := false
		for j, other := range r.Subgraphs {
			if i == j || len(ps.Nodes) > len(other.Nodes) {
				continue
			}
			if len(ps.Nodes) == len(other.Nodes) && len(ps.Edges) >= len(other.Edges) {
				continue
			}
			if containsAll(other, ps) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, ps)
		}
	}
	return out
}

func containsAll(big, small *PerfectSubgraph) bool {
	for _, v := range small.Nodes {
		if !big.Contains(v) {
			return false
		}
	}
	edges := make(map[[2]int32]bool, len(big.Edges))
	for _, e := range big.Edges {
		edges[e] = true
	}
	for _, e := range small.Edges {
		if !edges[e] {
			return false
		}
	}
	return true
}

// SizeHistogram buckets perfect-subgraph node counts as in the paper's
// Table 3: [0,9], [10,19], [20,29], [30,39], [40,49], ≥50.
func (r *Result) SizeHistogram() [6]int {
	var h [6]int
	for _, ps := range r.Subgraphs {
		b := len(ps.Nodes) / 10
		if b > 5 {
			b = 5
		}
		h[b]++
	}
	return h
}

// Deduper incrementally collapses a sequence of per-ball outcomes into
// distinct subgraphs. It is the one implementation of the dedup rule that
// MatchWith, the query engine's one pass and the shard router's merge all
// share: first admission wins a duplicate set, so feeding outcomes in
// ascending center order makes the smallest producing center win.
type Deduper struct {
	seen map[string]struct{}
	buf  []byte // the signature being looked up
}

// NewDeduper returns an empty deduper.
func NewDeduper() *Deduper {
	return &Deduper{seen: make(map[string]struct{})}
}

// Admit reports whether ps is a subgraph not seen before, counting nil
// outcomes as nothing and repeats into stats.Duplicates. The signature is
// built in the deduper's buffer and looked up without a copy; only an
// admitted subgraph's is stored.
func (d *Deduper) Admit(ps *PerfectSubgraph, stats *Stats) bool {
	if ps == nil {
		return false
	}
	d.buf = ps.appendSignature(d.buf[:0])
	if _, dup := d.seen[string(d.buf)]; dup {
		stats.Duplicates++
		return false
	}
	d.seen[string(d.buf)] = struct{}{}
	return true
}

// DedupSubgraphs collapses per-center outcomes (nil where a center produced
// nothing) into the distinct subgraphs in first-seen order, counting the
// discards into stats.Duplicates. Callers pass outcomes in ascending center
// order so the smallest producing center wins a duplicate set.
func DedupSubgraphs(perCenter []*PerfectSubgraph, stats *Stats) []*PerfectSubgraph {
	d := NewDeduper()
	var out []*PerfectSubgraph
	for _, ps := range perCenter {
		if d.Admit(ps, stats) {
			out = append(out, ps)
		}
	}
	return out
}

// SortSubgraphs orders a subgraph slice canonically (by smallest node, then
// size, then signature); MatchWith applies it before returning and the
// shard router after its ownership merge.
func SortSubgraphs(subs []*PerfectSubgraph) {
	sort.Slice(subs, func(i, j int) bool {
		a, b := subs[i], subs[j]
		if a.Nodes[0] != b.Nodes[0] {
			return a.Nodes[0] < b.Nodes[0]
		}
		if len(a.Nodes) != len(b.Nodes) {
			return len(a.Nodes) < len(b.Nodes)
		}
		return signatureLess(a, b)
	})
}

// signatureLess orders two subgraphs by their signatures, built in stack
// buffers: sorts compare signatures only to break ties, and each comparison
// would otherwise allocate two strings.
func signatureLess(a, b *PerfectSubgraph) bool {
	var sa, sb [128]byte
	return bytes.Compare(a.appendSignature(sa[:0]), b.appendSignature(sb[:0])) < 0
}
