package graph

import (
	"math/bits"
	"slices"
)

// BallScratch builds balls into reusable storage, so a worker evaluating
// thousands of balls stops paying one BFS map, one Builder and one adjacency
// allocation spree per center. The zero value is ready to use; a scratch is
// NOT safe for concurrent use — give each worker its own (internal/exec does
// exactly that).
//
// The Ball returned by Build, BuildRestricted or View, including its Graph
// and every slice reachable from it, is owned by the scratch and valid only
// until the next build on the same scratch (a view's Graph is the kept
// graph's, which lives as long as the scratch that built it with Kept).
// Callers that need to retain a ball must use NewBall instead; evaluators
// that consume the ball and copy their findings out
// (core.EvalPreparedBallIn and everything on top of it) can run on scratch
// balls unchanged.
type BallScratch struct {
	// The scratch's only per-parent-node state, sized to the largest graph
	// seen. seen holds the nodes the current BFS reached; a build removes
	// exactly those (by walking reached) before it returns, so the set is
	// empty between builds and a reset costs O(|ball|), not O(|V|). A bitmap
	// because scratches are pooled across runs (internal/exec): |V|/8 bytes
	// stay in L1 during the BFS and are all a live scratch holds per graph
	// node; everything else is sized to the balls it has built.
	seen NodeSet

	// reached is the BFS queue: every node within the radius, in discovery
	// order. members are the reached nodes that receive a ball id (all of
	// them, or the candidates plus the center), sorted ascending after the
	// BFS; the returned ball's Orig aliases it.
	reached []int32
	members []int32
	// ids maps each member's parent id to its BFS distance, then to its ball
	// id: an open-addressing table of node<<32 | value entries sized to the
	// ball (a power of two, at least twice the members), so the lookup a
	// per-node array would answer costs one hash and a short probe, and the
	// table costs the ball, not |V|. idShift turns a hash into a position.
	ids     []uint64
	idShift uint

	// Reuse accounting (see Stats): builds counts builds, misses counts
	// builds that had to grow an arena instead of being served entirely from
	// reused storage, rows counts the parent adjacency rows the builds read.
	builds int64
	misses int64
	rows   int64

	// Reused ball storage: the ball, its graph's arenas, the buffer the BFS
	// decodes rows into, and the members' distances.
	ball  Ball
	arena subArena
	row   []int32
	dist  []int32

	// A view's state beside seen: mark holds its members as kept ids, a
	// set as long as the kept graph that a view empties by walking its
	// members; slots holds, beside each node its BFS reached past depth 1,
	// its position in the kept graph's index (-1 when it has none).
	mark  NodeSet
	slots []int32
	// kg is the kept graph Kept builds, for the scratch a request holds.
	kg KeptGraph
}

// subArena is the reusable storage of a graph a scratch builds over
// re-indexed nodes — a restricted ball's, or a query's kept graph — and the
// code that freezes it: the caller fills nodeLbl and both directions of the
// adjacency as flat CSR of new ids, and finish encodes them into pages and
// indexes the labels.
type subArena struct {
	sub     Graph
	nodeLbl []int32
	// The adjacency, out ([0]) and in ([1]): first as a flat CSR of new ids
	// (row i is flat[start[i]:start[i+1]]), then encoded into page
	// directories whose pages are elements of one page arena, their bytes
	// windows of one byte arena, per direction.
	start [2][]int32
	flat  [2][]int32
	pages [2][]*csrPage
	store [2][]csrPage
	to    [2][]byte
	// Label index of the built graph: lblAt[l] is label l's position in
	// rows, whose nodes are windows of lblArena, and lblCount[l] is its
	// length. Both are indexed by label id and hold entries for the labels
	// of the current graph only; the next build clears those by walking the
	// previous nodeLbl. rank is the built graph's label-rank array.
	lblAt    []int32
	rows     []labelRow
	lblCount []int32
	lblArena []int32
	rank     []int32
}

// reset sizes the per-label slices to g's label table and clears the label
// index of the previous graph. It reports whether it had to reallocate.
func (a *subArena) reset(g *Graph) (grew bool) {
	if labels := g.labels.Len(); len(a.lblAt) < labels {
		// The previous graph's index dies with the old slices; no build is
		// in progress, so nothing else refers to them.
		a.lblAt = make([]int32, labels)
		a.lblCount = make([]int32, labels)
		a.nodeLbl = a.nodeLbl[:0]
		grew = true
	}
	for _, lbl := range a.nodeLbl {
		a.lblAt[lbl] = 0
		a.lblCount[lbl] = 0
	}
	a.nodeLbl = a.nodeLbl[:0]
	return grew
}

// footprint sums the capacities of the arenas, which only ever grow: a
// build that leaves it unchanged ran on reused storage.
func (a *subArena) footprint() int {
	n := cap(a.lblArena) + cap(a.rank) + cap(a.rows)
	for d := range a.start {
		n += cap(a.start[d]) + cap(a.flat[d]) + cap(a.store[d]) + cap(a.to[d]) + cap(a.pages[d])
	}
	return n
}

// finish freezes the graph over len(nodeLbl) nodes labelled nodeLbl, whose
// adjacency is the flat CSR in start and flat, every row ascending, and
// returns it. The graph shares g's label table and lives in the arena.
func (a *subArena) finish(g *Graph) *Graph {
	n := len(a.nodeLbl)
	for d := range a.pages {
		a.pages[d], a.store[d], a.to[d] = appendPages(a.pages[d][:0], a.store[d][:0], a.to[d][:0], a.start[d], a.flat[d])
	}
	// Label index: count, then give each label a row at its first node,
	// carve the row's window out of one arena and fill in ascending node
	// order. Appends stay inside each window because capacities are exact.
	for _, lbl := range a.nodeLbl {
		a.lblCount[lbl]++
	}
	a.rows = append(a.rows[:0], labelRow{})
	if cap(a.lblArena) < n {
		a.lblArena = make([]int32, n)
		a.rank = make([]int32, 0, n)
	}
	off := int32(0)
	a.rank = a.rank[:0]
	for i, lbl := range a.nodeLbl {
		if a.lblAt[lbl] == 0 {
			c := a.lblCount[lbl]
			a.lblAt[lbl] = int32(len(a.rows))
			a.rows = append(a.rows, labelRow{nodes: a.lblArena[off : off : off+c]})
			off += c
		}
		row := &a.rows[a.lblAt[lbl]]
		a.rank = append(a.rank, int32(len(row.nodes)))
		row.nodes = append(row.nodes, int32(i))
	}
	// A graph of up to one page of nodes — nearly every restricted ball —
	// has a one-entry page directory.
	a.sub = Graph{
		labels:   g.labels,
		nodeLbl:  a.nodeLbl,
		out:      CSR{pages: a.pages[0], n: n},
		in:       CSR{pages: a.pages[1], n: n},
		numEdges: len(a.flat[0]),
		lblAt:    a.lblAt,
		rows:     a.rows,
		rank:     a.rank,
	}
	return &a.sub
}

// grow ensures seen covers g's nodes, and reports whether it had to
// reallocate.
func (s *BallScratch) grow(g *Graph) bool {
	if n := g.NumNodes(); s.seen.Capacity() < n {
		s.seen.Reset(n)
		return true
	}
	return false
}

// noID marks an empty entry of BallScratch.ids: no node has id -1.
const noID = ^uint64(0)

// index empties ids for n members.
func (s *BallScratch) index(n int) {
	b := bits.Len(uint(2*n - 1))
	if cap(s.ids) < 1<<b {
		s.ids = make([]uint64, 1<<b)
	}
	s.ids = s.ids[:1<<b]
	for i := range s.ids {
		s.ids[i] = noID
	}
	s.idShift = 32 - uint(b)
}

// at returns the position of parent node v in ids: its entry, or the empty
// one it would take. The hash is Fibonacci hashing (the top bits of v times
// 2^32/φ), which spreads the clustered ids of a ball over the table.
func (s *BallScratch) at(v int32) int {
	mask := len(s.ids) - 1
	i := int(uint32(v) * 0x9e3779b9 >> s.idShift)
	for e := s.ids[i]; e != noID && int32(e>>32) != v; e = s.ids[i] {
		i = (i + 1) & mask
	}
	return i
}

// Stats returns the cumulative counts of this scratch: builds is how many
// balls it has constructed (full or restricted alike), misses how many of
// those had to grow backing storage, and rows how many adjacency rows of the
// parent graph they read (decoded or tested, one out- or in-row each).
// builds - misses builds ran entirely on reused arenas; internal/exec folds
// all three into the scratch_ball_* counters of the metrics registry when a
// worker retires.
func (s *BallScratch) Stats() (builds, misses, rows int64) { return s.builds, s.misses, s.rows }

// Forget lets go of the graph the kept graph was built over and of the last
// ball built — a view's points into the kept graph it was made from — and
// keeps the storage.
func (s *BallScratch) Forget() {
	s.kg.parent = nil
	s.ball = Ball{}
}

// Build constructs Ĝ[center, radius] into the scratch and returns it. The
// result is identical to NewBall(g, center, radius) in every observable way;
// only the storage lifetime differs (see the type comment).
func (s *BallScratch) Build(g *Graph, center int32, radius int) *Ball {
	return s.BuildRestricted(g, center, radius, nil)
}

// BuildRestricted constructs the subgraph of Ĝ[center, radius] induced by
// the ball members that are in keep, plus the center: the undirected BFS
// runs over all of g — paths pass through any node, so Dist is the true
// distance in g and membership is exactly the ball's — but only kept members
// receive a ball id, a label, a distance and adjacency rows. A nil keep
// keeps every member, which is Build.
//
// This is the ball a matcher needs when keep holds every node that can be a
// candidate of the query at hand: refinement, connectivity pruning, border
// seeding and match-graph extraction only ever read candidates and the edges
// between two candidates (see DESIGN.md, "Per-worker scratch"). A build then
// costs its BFS plus work proportional to the kept members, not to the
// ball's induced subgraph.
func (s *BallScratch) BuildRestricted(g *Graph, center int32, radius int, keep *NodeSet) *Ball {
	s.builds++
	grew := s.grow(g)
	if s.arena.reset(g) {
		grew = true
	}
	preReached, preMembers, preIDs, preArena := cap(s.reached), cap(s.members), cap(s.ids), s.arena.footprint()

	// Undirected BFS over g. The frontier of distance d-1 is the window
	// reached[lo:hi]; appends during the sweep may move the backing array,
	// which the captured window survives. Each member's distance is appended
	// beside it.
	s.reached = append(s.reached[:0], center)
	s.members = append(s.members[:0], center)
	s.dist = append(s.dist[:0], 0)
	s.seen.Add(center)
	lo := 0
	for d := int32(1); int(d) <= radius && lo < len(s.reached); d++ {
		hi := len(s.reached)
		s.rows += 2 * int64(hi-lo)
		for _, v := range s.reached[lo:hi] {
			s.row = g.in.AppendRow(g.out.AppendRow(s.row[:0], v), v)
			for _, w := range s.row {
				if !s.seen.Add(w) {
					continue
				}
				s.reached = append(s.reached, w)
				if keep == nil || keep.Contains(w) {
					s.members = append(s.members, w)
					s.dist = append(s.dist, d)
				}
			}
		}
		lo = hi
	}

	// Re-index: ascending parent ids map to ascending ball ids, so the
	// translated adjacency below stays sorted without re-sorting. ids carries
	// each member's distance across the sort and holds its ball id after.
	n := len(s.members)
	s.index(n)
	for i, v := range s.members {
		s.ids[s.at(v)] = uint64(v)<<32 | uint64(uint32(s.dist[i]))
	}
	slices.Sort(s.members)
	orig := s.members
	a := &s.arena
	for i, v := range orig {
		j := s.at(v)
		s.dist[i] = int32(uint32(s.ids[j]))
		s.ids[j] = uint64(v)<<32 | uint64(i)
		a.nodeLbl = append(a.nodeLbl, g.nodeLbl[v])
	}

	// Induced adjacency. Each member's out-row is decoded, cut to the
	// members (the reached nodes that are kept, and the center) and
	// translated to ball ids, still ascending; the in-rows are its
	// transpose, so no parent in-row is read.
	start, flat := a.start[0][:0], a.flat[0][:0]
	s.rows += int64(n)
	for _, v := range orig {
		start = append(start, int32(len(flat)))
		k := len(flat)
		flat = g.out.AppendRow(flat, v)
		for _, w := range flat[k:] {
			if s.seen.Contains(w) && (keep == nil || w == center || keep.Contains(w)) {
				flat[k] = int32(uint32(s.ids[s.at(w)]))
				k++
			}
		}
		flat = flat[:k]
	}
	start = append(start, int32(len(flat)))
	a.start[0], a.flat[0] = start, flat
	a.start[1], a.flat[1] = transpose(a.start[1], a.flat[1], n, start, flat)
	centerID := int32(uint32(s.ids[s.at(center)]))
	for _, v := range s.reached {
		s.seen.Remove(v)
	}

	s.ball = Ball{
		G:      a.finish(g),
		Center: centerID,
		Radius: radius,
		Orig:   orig,
		Dist:   s.dist,
	}
	if grew || cap(s.reached) != preReached || cap(s.members) != preMembers || cap(s.ids) != preIDs ||
		a.footprint() != preArena {
		s.misses++
	}
	return &s.ball
}
