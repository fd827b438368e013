package graph

import "slices"

// BallScratch builds balls into reusable storage, so a worker evaluating
// thousands of balls stops paying one BFS map, one Builder and one adjacency
// allocation spree per center. The zero value is ready to use; a scratch is
// NOT safe for concurrent use — give each worker its own (internal/exec does
// exactly that).
//
// The Ball returned by Build or BuildRestricted, including its induced Graph
// and every slice reachable from it, is owned by the scratch and valid only
// until the next build on the same scratch. Callers that need to retain a
// ball (the engine's snapshot cache) must use NewBall instead; evaluators
// that consume the ball and copy their findings out
// (core.EvalPreparedBallIn and everything on top of it) can run on scratch
// balls unchanged.
type BallScratch struct {
	// Dense per-parent-node state, sized to the largest graph seen. seen
	// holds the nodes the current BFS reached; a build removes exactly those
	// (by walking reached) before it returns, so the set is empty between
	// builds and a reset costs O(|ball|), not O(|V|). A bitmap rather than an
	// int32 epoch stamp because scratches are pooled across runs
	// (internal/exec): |V|/8 bytes stay in L1 during the BFS and keep a live
	// scratch at ≈4.1 bytes per graph node instead of 8.
	seen NodeSet
	// slot[v] is meaningful for the members of the current build only: their
	// BFS distance while the BFS runs, their ball id once re-indexed. It is
	// never read for any other node, so it needs no clearing.
	slot []int32

	// reached is the BFS queue: every node within the radius, in discovery
	// order. members are the reached nodes that receive a ball id (all of
	// them, or the candidates plus the center), sorted ascending after the
	// BFS; the returned ball's Orig aliases it.
	reached []int32
	members []int32

	// Reuse accounting (see Stats): builds counts builds, misses counts
	// builds that had to grow an arena instead of being served entirely from
	// reused storage.
	builds int64
	misses int64

	// Reused ball storage.
	ball     Ball
	sub      Graph
	nodeLbl  []int32
	outHdr   [][]int32
	inHdr    [][]int32
	outPages [][][]int32 // page tables over outHdr and inHdr
	inPages  [][][]int32
	outArena []int32
	inArena  []int32
	dist     []int32
	// Label index of the built graph without a map: lblRows[l] lists the
	// ball nodes labelled l (a window of lblArena), lblCount[l] is its
	// length. Both are indexed by label id and hold entries for the labels
	// of the current ball only; the next build clears those by walking the
	// previous nodeLbl. rank is the built graph's label-rank array.
	lblRows  [][]int32
	lblCount []int32
	lblArena []int32
	rank     []int32
}

// grow ensures the per-parent-node slices cover g's nodes and the per-label
// slices its label table, and clears the label index of the previous ball.
// It reports whether it had to reallocate.
func (s *BallScratch) grow(g *Graph) (grew bool) {
	if n := g.NumNodes(); len(s.slot) < n {
		s.seen.Reset(n)
		s.slot = make([]int32, n)
		grew = true
	}
	if labels := g.labels.Len(); len(s.lblRows) < labels {
		// Rows of the previous ball die with the old slice; no build is in
		// progress, so nothing else refers to them.
		s.lblRows = make([][]int32, labels)
		s.lblCount = make([]int32, labels)
		s.nodeLbl = s.nodeLbl[:0]
		grew = true
	}
	for _, lbl := range s.nodeLbl {
		s.lblRows[lbl] = nil
		s.lblCount[lbl] = 0
	}
	return grew
}

// Stats returns the cumulative build and arena-miss counts of this scratch:
// builds is how many balls it has constructed (full or restricted alike),
// misses how many of those had to grow backing storage. builds - misses
// builds ran entirely on reused arenas; internal/exec folds these into the
// scratch_ball_* counters of the metrics registry when a worker retires.
func (s *BallScratch) Stats() (builds, misses int64) { return s.builds, s.misses }

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
	preReached, preMembers := cap(s.reached), cap(s.members)
	preOut, preIn, preLbl := cap(s.outArena), cap(s.inArena), cap(s.lblArena)

	// Undirected BFS over g. The frontier of distance d-1 is the window
	// reached[lo:hi]; appends during the sweep may move the backing array,
	// which the captured window survives.
	s.reached = append(s.reached[:0], center)
	s.members = append(s.members[:0], center)
	s.seen.Add(center)
	s.slot[center] = 0
	lo := 0
	for d := int32(1); int(d) <= radius && lo < len(s.reached); d++ {
		hi := len(s.reached)
		for _, v := range s.reached[lo:hi] {
			for _, adj := range [2][]int32{g.Out(v), g.In(v)} {
				for _, w := range adj {
					if !s.seen.Add(w) {
						continue
					}
					s.reached = append(s.reached, w)
					if keep == nil || keep.Contains(w) {
						s.slot[w] = d
						s.members = append(s.members, w)
					}
				}
			}
		}
		lo = hi
	}
	slices.Sort(s.members)

	// Re-index: ascending parent ids map to ascending ball ids, so the
	// translated adjacency below stays sorted without re-sorting.
	orig := s.members
	n := len(orig)
	s.dist = s.dist[:0]
	s.nodeLbl = s.nodeLbl[:0]
	for i, v := range orig {
		s.dist = append(s.dist, s.slot[v])
		s.slot[v] = int32(i)
		s.nodeLbl = append(s.nodeLbl, g.nodeLbl[v])
	}
	// member reports whether parent node w received a ball id (then slot[w]).
	member := func(w int32) bool {
		return s.seen.Contains(w) && (keep == nil || w == center || keep.Contains(w))
	}

	// Induced adjacency into shared arenas. Growth mid-build leaves earlier
	// headers pointing at the old backing array, which still holds their
	// data — only ever read, never appended to again.
	s.outHdr = s.outHdr[:0]
	s.inHdr = s.inHdr[:0]
	s.outArena = s.outArena[:0]
	s.inArena = s.inArena[:0]
	for _, v := range orig {
		start := len(s.outArena)
		for _, w := range g.Out(v) {
			if member(w) {
				s.outArena = append(s.outArena, s.slot[w])
			}
		}
		s.outHdr = append(s.outHdr, s.outArena[start:len(s.outArena):len(s.outArena)])
		start = len(s.inArena)
		for _, w := range g.In(v) {
			if member(w) {
				s.inArena = append(s.inArena, s.slot[w])
			}
		}
		s.inHdr = append(s.inHdr, s.inArena[start:len(s.inArena):len(s.inArena)])
	}
	centerID := s.slot[center]
	for _, v := range s.reached {
		s.seen.Remove(v)
	}

	// Label index: count, then carve each label's window out of one arena
	// at its first node and fill in ascending node order. Appends stay
	// inside each window because capacities are exact.
	for _, lbl := range s.nodeLbl {
		s.lblCount[lbl]++
	}
	if cap(s.lblArena) < n {
		s.lblArena = make([]int32, n)
		s.rank = make([]int32, 0, n)
	}
	off := int32(0)
	s.rank = s.rank[:0]
	for i, lbl := range s.nodeLbl {
		if s.lblRows[lbl] == nil {
			c := s.lblCount[lbl]
			s.lblRows[lbl] = s.lblArena[off : off : off+c]
			off += c
		}
		s.rank = append(s.rank, int32(len(s.lblRows[lbl])))
		s.lblRows[lbl] = append(s.lblRows[lbl], int32(i))
	}

	// The built graph reads its rows through page tables like any other; the
	// pages are windows of the header arrays, and a ball of up to one page of
	// members — nearly every restricted ball — has a one-entry table.
	s.outPages = pageViews(s.outPages[:0], s.outHdr)
	s.inPages = pageViews(s.inPages[:0], s.inHdr)
	s.sub = Graph{
		labels:   g.labels,
		nodeLbl:  s.nodeLbl,
		out:      Paged[[]int32]{pages: s.outPages, n: n},
		in:       Paged[[]int32]{pages: s.inPages, n: n},
		numEdges: len(s.outArena),
		lblRows:  s.lblRows,
		rank:     s.rank,
	}
	s.ball = Ball{
		G:      &s.sub,
		Center: centerID,
		Radius: radius,
		Orig:   orig,
		Dist:   s.dist,
	}
	if grew || cap(s.reached) != preReached || cap(s.members) != preMembers ||
		cap(s.outArena) != preOut || cap(s.inArena) != preIn || cap(s.lblArena) != preLbl {
		s.misses++
	}
	return &s.ball
}
