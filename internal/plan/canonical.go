package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// canonBudget caps how many candidate orderings Canon enumerates before
// falling back to the identity encoding. 8! / a few refined classes covers
// every realistic pattern; pathological ones just cache under a weaker key
// (isomorphic-but-differently-numbered submissions miss instead of hit,
// which is slower, never wrong).
const canonBudget = 20160

// Canon computes a canonical cache key for a pattern graph and the node
// permutation realizing it: perm[u] is the canonical position of pattern
// node u. Two isomorphic patterns (same label names, same edges up to node
// renumbering) produce the same key, and remapping one's relation through
// the two perms translates cached results between them.
//
// The key is label-name based, not label-id based, so patterns parsed
// against different label-table clones still collide correctly.
//
// The algorithm is WL color refinement to stable classes, then exhaustive
// class-constrained ordering search for the lexicographically least
// encoding. When the class structure leaves more than canonBudget
// orderings, Canon keeps the identity ordering and prefixes the key so it
// can never collide with a true canonical key.
func Canon(q *graph.Graph) (string, []int32) {
	n := q.NumNodes()
	perm := make([]int32, n)
	if n == 0 {
		return "x|empty", perm
	}

	colors := refine(q)

	// Group nodes by color, classes ordered by color string.
	byColor := make(map[string][]int32)
	for v := int32(0); v < int32(n); v++ {
		byColor[colors[v]] = append(byColor[colors[v]], v)
	}
	keys := make([]string, 0, len(byColor))
	for c := range byColor {
		keys = append(keys, c)
	}
	sort.Strings(keys)

	// Count the orderings the class structure permits.
	budget := 1
	for _, c := range keys {
		for i := 2; i <= len(byColor[c]); i++ {
			budget *= i
			if budget > canonBudget {
				for v := range perm {
					perm[v] = int32(v)
				}
				return "x|" + encode(q, identityOrder(n)), perm
			}
		}
	}

	classes := make([][]int32, len(keys))
	for i, c := range keys {
		classes[i] = byColor[c]
	}

	// Enumerate within-class permutations, keeping the least encoding.
	order := make([]int32, 0, n) // canonical position -> node
	best := ""
	bestOrder := make([]int32, n)
	var walk func(ci int)
	walk = func(ci int) {
		if ci == len(classes) {
			enc := encode(q, order)
			if best == "" || enc < best {
				best = enc
				copy(bestOrder, order)
			}
			return
		}
		permuteInto(classes[ci], &order, func() { walk(ci + 1) })
	}
	walk(0)

	for pos, v := range bestOrder {
		perm[v] = int32(pos)
	}
	return "c|" + best, perm
}

// refine runs WL color refinement: the initial color is (label name,
// out-degree, in-degree); each round appends the sorted multisets of out-
// and in-neighbor colors. Stops when the number of distinct colors stops
// growing (at most n rounds).
func refine(q *graph.Graph) []string {
	n := q.NumNodes()
	colors := make([]string, n)
	for v := int32(0); v < int32(n); v++ {
		colors[v] = fmt.Sprintf("%s/%d/%d", q.LabelName(v), q.OutDegree(v), q.InDegree(v))
	}
	distinct := countDistinct(colors)
	out, in := q.Rows()
	row := make([]int32, 0, 16)
	for round := 0; round < n; round++ {
		next := make([]string, n)
		var sb strings.Builder
		nb := make([]string, 0, 8)
		for v := int32(0); v < int32(n); v++ {
			sb.Reset()
			sb.WriteString(colors[v])
			for _, adj := range [2]graph.CSR{out, in} {
				nb = nb[:0]
				row = adj.AppendRow(row[:0], v)
				for _, w := range row {
					nb = append(nb, colors[w])
				}
				sort.Strings(nb)
				sb.WriteByte('|')
				for _, c := range nb {
					sb.WriteString(c)
					sb.WriteByte(',')
				}
			}
			next[v] = sb.String()
		}
		colors = next
		if d := countDistinct(colors); d == distinct {
			break
		} else {
			distinct = d
		}
	}
	return colors
}

func countDistinct(xs []string) int {
	seen := make(map[string]bool, len(xs))
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}

// encode serializes q under an ordering (canonical position -> node):
// label names in position order, then the edge list as sorted position
// pairs. Two orderings of isomorphic graphs encode equal iff they realize
// the same canonical form.
func encode(q *graph.Graph, order []int32) string {
	pos := make([]int32, len(order))
	for p, v := range order {
		pos[v] = int32(p)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d;", len(order))
	for _, v := range order {
		sb.WriteString(q.LabelName(v))
		sb.WriteByte(';')
	}
	edges := make([][2]int32, 0, q.NumEdges())
	q.Edges(func(u, w int32) { edges = append(edges, [2]int32{pos[u], pos[w]}) })
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		fmt.Fprintf(&sb, "%d>%d;", e[0], e[1])
	}
	return sb.String()
}

func identityOrder(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

// permuteInto runs fn once per permutation of class, with the permutation
// appended to *order for the duration of the call (Heap's algorithm over a
// scratch copy).
func permuteInto(class []int32, order *[]int32, fn func()) {
	c := append([]int32(nil), class...)
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			base := len(*order)
			*order = append(*order, c...)
			fn()
			*order = (*order)[:base]
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				c[i], c[k-1] = c[k-1], c[i]
			} else {
				c[0], c[k-1] = c[k-1], c[0]
			}
		}
	}
	rec(len(c))
}
