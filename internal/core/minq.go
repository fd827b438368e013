package core

import (
	"repro/internal/graph"
	"repro/internal/simulation"
)

// MinimizeQuery implements algorithm minQ (Fig. 4, Lemma 2): it returns the
// minimum pattern graph equivalent to q under dual simulation, together
// with classOf mapping each node of q to its node in the minimized pattern.
//
// The algorithm computes the maximum dual-simulation relation S of q
// against itself, forms equivalence classes u ≡ v ⇔ (u,v) ∈ S ∧ (v,u) ∈ S,
// creates one node per class and connects classes that contain an original
// edge. Quotienting can in principle expose further equivalences, so the
// construction repeats until a fixpoint — patterns are small, and each round
// is O((|Vq|+|Eq|)²) (Theorem 6).
//
// Dual simulation relates only nodes that share a label, so a pattern whose
// nodes carry distinct labels is already minimal: it is returned as is, with
// the identity classOf, and no round runs.
func MinimizeQuery(q *graph.Graph) (*graph.Graph, []int32) {
	classOf := make([]int32, q.NumNodes())
	for i := range classOf {
		classOf[i] = int32(i)
	}
	if distinctLabels(q) {
		return q, classOf
	}
	cur := q
	for {
		next, step := minimizeOnce(cur)
		if next == cur {
			return cur, classOf
		}
		for i := range classOf {
			classOf[i] = step[classOf[i]]
		}
		cur = next
	}
}

// distinctLabels reports whether no two nodes of q share a label.
func distinctLabels(q *graph.Graph) bool {
	for u := int32(0); u < int32(q.NumNodes()); u++ {
		if len(q.NodesWithLabel(q.Label(u))) > 1 {
			return false
		}
	}
	return true
}

// minimizeOnce runs one round of minQ. It returns q itself when every class
// is a single node, and the quotient and each node's class otherwise.
func minimizeOnce(q *graph.Graph) (*graph.Graph, []int32) {
	// Line 1: maximum match relation of Q ≺D Q. The identity is always a
	// dual simulation, so S is reflexive and the fixpoint is total.
	rel, _ := simulation.Dual(q, q)

	// Line 2: equivalence classes under mutual simulation.
	n := q.NumNodes()
	classOf := make([]int32, n)
	for i := range classOf {
		classOf[i] = -1
	}
	var reps []int32 // class id -> representative node
	for u := int32(0); u < int32(n); u++ {
		if classOf[u] >= 0 {
			continue
		}
		id := int32(len(reps))
		reps = append(reps, u)
		classOf[u] = id
		for v := u + 1; v < int32(n); v++ {
			if classOf[v] < 0 && rel[u].Contains(v) && rel[v].Contains(u) {
				classOf[v] = id
			}
		}
	}

	if len(reps) == n {
		return q, nil
	}

	// Lines 3-4: one node per class, plus every edge witnessed between
	// classes.
	b := graph.NewBuilder(q.Labels())
	b.SetName(q.Name() + "m")
	for _, rep := range reps {
		b.AddNode(q.LabelName(rep))
	}
	q.Edges(func(u, v int32) {
		_ = b.AddEdge(classOf[u], classOf[v])
	})
	return b.Build(), classOf
}
