package graph

// ConnectedComponents partitions the nodes of g into undirected connected
// components (paper Section 2.1). Components are returned with node ids
// ascending inside each component, ordered by their smallest node.
func ConnectedComponents(g *Graph) [][]int32 {
	n := g.NumNodes()
	seen := make([]bool, n)
	var comps [][]int32
	for v := 0; v < n; v++ {
		if seen[v] {
			continue
		}
		comps = append(comps, collectComponent(g, int32(v), seen))
	}
	return comps
}

// ComponentOf returns the undirected connected component of g containing
// start.
func ComponentOf(g *Graph, start int32) []int32 {
	return collectComponent(g, start, make([]bool, g.NumNodes()))
}

// ComponentWithin adds to comp, which must be empty and hold g's nodes, the
// undirected connected component containing start in the subgraph of g
// induced by member, and returns the component's nodes in breadth-first
// order in queue's storage, so a caller that keeps the queue allocates
// nothing. It adds nothing and returns queue[:0] when start itself is not a
// member. Used by the connectivity-pruning optimization (paper Section 4.2):
// only candidates connected to the ball center can contribute to the perfect
// subgraph.
func ComponentWithin(g *Graph, start int32, member, comp *NodeSet, queue []int32) []int32 {
	queue = queue[:0]
	if !member.Contains(start) {
		return queue
	}
	comp.Add(start)
	queue = append(queue, start)
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		// v's rows are decoded past the queue's end and compacted, in
		// place, to the members they newly reach.
		n := len(queue)
		queue = g.AppendIn(g.AppendOut(queue, v), v)
		for _, w := range queue[n:] {
			if member.Contains(w) && comp.Add(w) {
				queue[n] = w
				n++
			}
		}
		queue = queue[:n]
	}
	return queue
}

// IsConnected reports whether g is (undirected) connected. The empty graph
// counts as connected.
func (g *Graph) IsConnected() bool {
	if g.NumNodes() == 0 {
		return true
	}
	return len(ComponentOf(g, 0)) == g.NumNodes()
}

// collectComponent returns the undirected component of g containing start,
// marking its nodes in seen.
func collectComponent(g *Graph, start int32, seen []bool) []int32 {
	seen[start] = true
	queue := []int32{start}
	comp := []int32{start}
	var row []int32
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		row = g.AppendIn(g.AppendOut(row[:0], v), v)
		for _, w := range row {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
				comp = append(comp, w)
			}
		}
	}
	return comp
}

// StronglyConnectedComponents returns the strongly connected components of g
// (Tarjan's algorithm, iterative). Every directed cycle lies inside one SCC,
// so SCCs with more than one node — or a single node with a self-loop —
// witness directed cycles (used by the Theorem 4 discussion and the cycle
// preservation property tests).
func StronglyConnectedComponents(g *Graph) [][]int32 {
	n := g.NumNodes()
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack   []int32
		comps   [][]int32
		counter int32
	)

	type frame struct {
		v    int32
		out  []int32
		next int
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{v: int32(root), out: g.Out(int32(root))}}
		index[int32(root)] = counter
		low[int32(root)] = counter
		counter++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			adv := false
			for f.next < len(f.out) {
				w := f.out[f.next]
				f.next++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, out: g.Out(w)})
					adv = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if adv {
				continue
			}
			// f.v finished.
			if low[f.v] == index[f.v] {
				var comp []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.v {
						break
					}
				}
				comps = append(comps, comp)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[f.v] < low[p.v] {
					low[p.v] = low[f.v]
				}
			}
		}
	}
	return comps
}
