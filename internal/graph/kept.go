package graph

import (
	"math/bits"
	"slices"
)

// KeptGraph is the subgraph of a parent graph induced by a query's kept
// nodes — the nodes its global dual-simulation relation matches, the only
// ones a ball's matcher ever reads — together with what a ball needs to find
// its members among them: each kept node's undirected neighbourhood in the
// parent and, for balls of radius 2 or more, an index from any node next to
// a kept node to the kept nodes adjacent to it. A query builds one
// (BallScratch.Kept), and every ball it evaluates is a view of it
// (BallScratch.View): no ball builds a graph of its own. The kept graph is
// immutable once built, so any number of goroutines may read it while views
// are built from it.
type KeptGraph struct {
	// G is the induced subgraph. Its node i is the parent's Kept[i]; Kept
	// ascends, so kept ids sort like parent ids.
	G    *Graph
	Kept []int32

	parent *Graph
	radius int // the largest radius a view may take
	// Row i of nbr, nbr[nbrAt[i]:nbrAt[i+1]], is Kept[i]'s out-row and
	// in-row merged: its undirected neighbours in the parent, ascending and
	// once each. Beside each entry, dir holds whether it came from the
	// out-row (1), the in-row (2) or both (3), and at its slot's position in
	// the index. All four are built only for views of radius 2 or more.
	nbrAt []int32
	nbr   []int32
	dir   []uint8
	at    []int32
	// index is an open-addressing table keyed by parent node, at least twice
	// as long as it has keys: every kept node has a slot, and at radius ≥ 2
	// so does every node of a nbr row (slot, find). shift turns a hash into
	// a position; order lists the slots of unkept nodes as they were made.
	index []keptSlot
	shift uint
	order []int32
	// adj holds the windows of the unkept nodes' slots: the kept ids whose
	// nbr row holds the slot's node, ascending.
	adj []int32

	out, in []int32 // the rows being merged, decoded
	arena   subArena
}

// keptSlot is one entry of KeptGraph.index: key is parent node x plus one
// (0 in an empty slot); id is x's kept id, -1 when x is not kept; an unkept
// x's window is adj[lo:lo+n].
type keptSlot struct{ key, id, lo, n int32 }

// Kept builds the kept graph of g over kept — ascending node ids of g, which
// must not change while the kept graph is in use — for views of radius up
// to radius, into the scratch, and returns it; it is valid until the next
// Kept on the same scratch. Every kept node's out-row and in-row is decoded
// once: the kept graph's rows, the neighbourhoods and the index are all cut
// from them. Those two rows a kept node are counted into the scratch's rows
// (Stats); the build is not a ball and is not counted as one.
func (s *BallScratch) Kept(g *Graph, kept []int32, radius int) *KeptGraph {
	s.rows += 2 * int64(len(kept))
	k := &s.kg
	k.parent, k.Kept, k.radius = g, kept, radius
	a := &k.arena
	a.reset(g)
	for d := range a.start {
		a.start[d], a.flat[d] = a.start[d][:0], a.flat[d][:0]
	}
	for _, v := range kept {
		a.nodeLbl = append(a.nodeLbl, g.nodeLbl[v])
	}
	if radius < 2 {
		// A view reads nothing past its center's neighbours in G: the index
		// holds the kept nodes alone, and each row is cut as it is decoded,
		// against the kept nodes marked in seen, which is emptied again.
		k.reindex(len(kept))
		s.grow(g)
		for _, v := range kept {
			s.seen.Add(v)
		}
		for _, v := range kept {
			for d, adj := range [2]CSR{g.out, g.in} {
				a.start[d] = append(a.start[d], int32(len(a.flat[d])))
				k.out = adj.AppendRow(k.out[:0], v)
				for _, x := range k.out {
					if s.seen.Contains(x) {
						a.flat[d] = append(a.flat[d], k.index[k.slot(x)].id)
					}
				}
			}
		}
		for _, v := range kept {
			s.seen.Remove(v)
		}
	} else {
		k.neighbours()
	}
	a.start[0] = append(a.start[0], int32(len(a.flat[0])))
	a.start[1] = append(a.start[1], int32(len(a.flat[1])))
	k.G = a.finish(g)
	return k
}

// reindex empties the index for keys keys and gives every kept node its
// slot.
func (k *KeptGraph) reindex(keys int) {
	b := bits.Len(uint(2*max(1, keys) - 1))
	if cap(k.index) < 1<<b {
		k.index = make([]keptSlot, 1<<b)
	}
	k.index = k.index[:1<<b]
	clear(k.index)
	k.shift = 32 - uint(b)
	for j, v := range k.Kept {
		k.index[k.slot(v)] = keptSlot{key: v + 1, id: int32(j)}
	}
}

// neighbours builds what views of radius 2 or more read besides G: the
// merged rows and the index of every node next to a kept node, and cuts G's
// rows from the merged ones.
func (k *KeptGraph) neighbours() {
	g, a := k.parent, &k.arena
	k.nbrAt, k.nbr, k.dir = k.nbrAt[:0], k.nbr[:0], k.dir[:0]
	for _, v := range k.Kept {
		k.nbrAt = append(k.nbrAt, int32(len(k.nbr)))
		k.out, k.in = g.out.AppendRow(k.out[:0], v), g.in.AppendRow(k.in[:0], v)
		i, j := 0, 0
		for i < len(k.out) || j < len(k.in) {
			switch {
			case j == len(k.in) || i < len(k.out) && k.out[i] < k.in[j]:
				k.nbr, k.dir = append(k.nbr, k.out[i]), append(k.dir, 1)
				i++
			case i == len(k.out) || k.in[j] < k.out[i]:
				k.nbr, k.dir = append(k.nbr, k.in[j]), append(k.dir, 2)
				j++
			default:
				k.nbr, k.dir = append(k.nbr, k.out[i]), append(k.dir, 3)
				i++
				j++
			}
		}
	}
	k.nbrAt = append(k.nbrAt, int32(len(k.nbr)))

	// A slot per unkept neighbour too, counting the kept nodes that list
	// it. The windows are laid out in the order the slots were made and
	// filled in kept order, so each ascends.
	k.reindex(len(k.Kept) + len(k.nbr))
	k.at = slices.Grow(k.at[:0], len(k.nbr))[:len(k.nbr)]
	k.order = k.order[:0]
	for e, x := range k.nbr {
		i := k.slot(x)
		sl := &k.index[i]
		if sl.key != x+1 {
			*sl = keptSlot{key: x + 1, id: -1}
			k.order = append(k.order, int32(i))
		}
		k.at[e] = int32(i)
		if sl.id < 0 {
			sl.n++
		}
	}
	n := int32(0)
	for _, i := range k.order {
		sl := &k.index[i]
		sl.lo, sl.n, n = n, 0, n+sl.n
	}
	k.adj = slices.Grow(k.adj[:0], int(n))[:n]

	// G's rows are cut from the merged rows while they fill the windows: a
	// kept entry joins the out-row, the in-row or both, and kept ids ascend
	// with the entries.
	for j := range k.Kept {
		a.start[0] = append(a.start[0], int32(len(a.flat[0])))
		a.start[1] = append(a.start[1], int32(len(a.flat[1])))
		for e := k.nbrAt[j]; e < k.nbrAt[j+1]; e++ {
			sl := &k.index[k.at[e]]
			if sl.id < 0 {
				k.adj[sl.lo+sl.n] = int32(j)
				sl.n++
				continue
			}
			if k.dir[e]&1 != 0 {
				a.flat[0] = append(a.flat[0], sl.id)
			}
			if k.dir[e]&2 != 0 {
				a.flat[1] = append(a.flat[1], sl.id)
			}
		}
	}
}

// slot returns the position of parent node x in the index: its slot, or the
// empty one it would take. The hash is Fibonacci hashing, as
// BallScratch.at's.
func (k *KeptGraph) slot(x int32) int {
	mask := len(k.index) - 1
	i := int(uint32(x) * 0x9e3779b9 >> k.shift)
	for e := k.index[i].key; e != 0 && e != x+1; e = k.index[i].key {
		i = (i + 1) & mask
	}
	return i
}

// find returns the position of parent node x's slot, or -1 when it has
// none: x is neither kept nor, at radius ≥ 2, next to a kept node.
func (k *KeptGraph) find(x int32) int32 {
	if i := k.slot(x); k.index[i].key == x+1 {
		return int32(i)
	}
	return -1
}

// View returns the ball Ĝ[center, radius] of k's parent restricted to the
// kept nodes, as BuildRestricted restricts it to them, built as a view of
// k: G is k.G, Orig is k.Kept, and Members lists the kept ids within radius
// of center, ascending, with their exact distances in the parent. center
// must be kept, and radius at most the one k was built for. The ball is
// owned by the scratch and valid until its next build; the scratch only
// reads k.
//
// The members closer than radius come from a top-down BFS over the parent
// to depth radius-1. Depth 1 is the center's merged row in k. Deeper levels
// expand a kept node through its merged row and read the parent's rows of
// any other node, and only nodes within radius-2 are expanded: at radius ≤
// 2 the view reads no row of the parent at all. The members at distance
// exactly radius — the border of Proposition 5 — are the kept nodes not yet
// members next to a node at depth radius-1: its neighbours in k.G when it is
// kept, the kept nodes k's index lists for it otherwise. The work is that of
// the BFS and the rows and lists it reads, never a pass over all kept nodes.
func (s *BallScratch) View(k *KeptGraph, center int32, radius int) *Ball {
	if radius > k.radius {
		panic("graph: a view's radius exceeds its kept graph's")
	}
	s.builds++
	grew := false
	if n := len(k.Kept); s.mark.Capacity() < n {
		s.mark.Reset(n)
		grew = true
	}
	preReached, preMembers, preDist, preSlots, preIDs := cap(s.reached), cap(s.members), cap(s.dist), cap(s.slots), cap(s.ids)

	// The level being expanded, with each node's index position: the
	// center, then its merged row, then windows of reached.
	ci := k.find(center)
	cid := k.index[ci].id
	s.reached = append(s.reached[:0], center)
	s.slots = append(s.slots[:0], ci)
	nodes, slots := s.reached, s.slots
	s.members, s.dist = s.members[:0], s.dist[:0]
	s.member(cid, 0)
	if radius >= 2 {
		nodes, slots = k.nbr[k.nbrAt[cid]:k.nbrAt[cid+1]], k.at[k.nbrAt[cid]:k.nbrAt[cid+1]]
		for _, sl := range slots {
			s.member(k.index[sl].id, 1)
		}
	}
	if radius >= 3 {
		// Deeper levels may reach a node twice: seen holds every node
		// reached, parent ids.
		grew = s.grow(k.parent) || grew
		s.seen.Add(center)
		for _, v := range nodes {
			s.seen.Add(v)
		}
		for d := int32(2); int(d) < radius; d++ {
			next := len(s.reached)
			for i, v := range nodes {
				s.expand(k, v, slots[i], d)
			}
			nodes, slots = s.reached[next:], s.slots[next:]
		}
	}
	if radius >= 1 {
		for i := range nodes {
			sl := slots[i]
			if sl < 0 {
				continue
			}
			if id := k.index[sl].id; id >= 0 {
				s.row = k.G.in.AppendRow(k.G.out.AppendRow(s.row[:0], id), id)
				for _, j := range s.row {
					s.member(j, int32(radius))
				}
				continue
			}
			e := k.index[sl]
			for _, j := range k.adj[e.lo : e.lo+e.n] {
				s.member(j, int32(radius))
			}
		}
	}
	for _, j := range s.members {
		s.mark.Remove(j)
	}
	if radius >= 3 {
		for _, v := range k.nbr[k.nbrAt[cid]:k.nbrAt[cid+1]] {
			s.seen.Remove(v)
		}
		for _, v := range s.reached {
			s.seen.Remove(v)
		}
	}

	// Members ascending, each distance carried along.
	s.ids = s.ids[:0]
	for i, v := range s.members {
		s.ids = append(s.ids, uint64(v)<<32|uint64(s.dist[i]))
	}
	slices.Sort(s.ids)
	for i, e := range s.ids {
		s.members[i], s.dist[i] = int32(e>>32), int32(uint32(e))
	}

	s.ball = Ball{
		G:       k.G,
		Center:  cid,
		Radius:  radius,
		Orig:    k.Kept,
		Members: s.members,
		Dist:    s.dist,
	}
	if grew || cap(s.reached) != preReached || cap(s.members) != preMembers || cap(s.dist) != preDist ||
		cap(s.slots) != preSlots || cap(s.ids) != preIDs {
		s.misses++
	}
	return &s.ball
}

// member makes kept id j a member at distance d, unless it is one already
// or j is -1 (not kept).
func (s *BallScratch) member(j, d int32) {
	if j >= 0 && s.mark.Add(j) {
		s.members = append(s.members, j)
		s.dist = append(s.dist, d)
	}
}

// expand visits the neighbours of v, at BFS depth d-1 of a view of k with
// index position sl: a kept v's merged row, the parent's rows of any other
// node. Each neighbour not reached before joins the queue with its index
// position, and the members when it is kept.
func (s *BallScratch) expand(k *KeptGraph, v, sl, d int32) {
	if sl >= 0 && k.index[sl].id >= 0 {
		id := k.index[sl].id
		for e := k.nbrAt[id]; e < k.nbrAt[id+1]; e++ {
			if w := k.nbr[e]; s.seen.Add(w) {
				s.reached, s.slots = append(s.reached, w), append(s.slots, k.at[e])
				s.member(k.index[k.at[e]].id, d)
			}
		}
		return
	}
	s.rows += 2
	s.row = k.parent.in.AppendRow(k.parent.out.AppendRow(s.row[:0], v), v)
	for _, w := range s.row {
		if s.seen.Add(w) {
			wl := k.find(w)
			s.reached, s.slots = append(s.reached, w), append(s.slots, wl)
			if wl >= 0 {
				s.member(k.index[wl].id, d)
			}
		}
	}
}
