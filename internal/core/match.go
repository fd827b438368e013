package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/simulation"
)

// Options configure a strong-simulation run. The zero value is the paper's
// plain algorithm Match (Fig. 3).
type Options struct {
	// Workers sets the number of goroutines evaluating balls; 0 uses
	// GOMAXPROCS and 1 forces the sequential execution assumed by the
	// paper's complexity analysis.
	Workers int
	// Radius overrides the ball radius; 0 uses the pattern diameter dQ.
	// (Lemma 3 fixes the radius when reasoning about query equivalence.)
	Radius int
	// MinimizeQuery runs minQ (Fig. 4) first and matches with the reduced
	// pattern, keeping the original pattern's diameter as the radius.
	MinimizeQuery bool
	// DualFilter computes the dual-simulation relation once on the whole
	// data graph, skips balls whose center is unmatched, and refines each
	// ball from its border nodes only (Fig. 5, Proposition 5).
	DualFilter bool
	// ConnectivityPruning drops, inside every ball, candidates that are not
	// undirected-connected to the ball center through candidate nodes
	// (Section 4.2, Example 6).
	ConnectivityPruning bool
}

// PlusOptions returns the configuration of Match+: every optimization
// enabled.
func PlusOptions() Options {
	return Options{MinimizeQuery: true, DualFilter: true, ConnectivityPruning: true}
}

// Match runs the paper's algorithm Match (Fig. 3): strong simulation with
// no optimizations, inspecting the ball of radius dQ around every data
// node. Pattern graphs must be connected and non-empty.
func Match(q, g *graph.Graph) (*Result, error) {
	return MatchWith(q, g, Options{})
}

// MatchPlus runs Match+ — Match with query minimization, dual-simulation
// filtering and connectivity pruning (Section 4.2).
func MatchPlus(q, g *graph.Graph) (*Result, error) {
	return MatchWith(q, g, PlusOptions())
}

// MatchWith runs strong simulation with explicit options.
func MatchWith(q, g *graph.Graph, opts Options) (*Result, error) {
	return MatchCtx(context.Background(), q, g, opts)
}

// MatchCtx is MatchWith with cancellation: when ctx is cancelled or its
// deadline passes mid-run, MatchCtx returns ctx's error. Cancellation is
// observed between balls, between the precomputation phases and inside the
// global dual simulation. Ball evaluation fans out over the internal/exec
// pool; Workers: 1 keeps the strictly sequential, deterministic execution the
// paper's complexity analysis assumes.
func MatchCtx(ctx context.Context, q, g *graph.Graph, opts Options) (*Result, error) {
	if q.NumNodes() == 0 {
		return nil, fmt.Errorf("core: empty pattern graph")
	}
	dq, connected := graph.Diameter(q)
	if !connected {
		return nil, fmt.Errorf("core: pattern graph must be connected (Section 2.1)")
	}
	radius := opts.Radius
	if radius <= 0 {
		radius = dq
	}

	res := &Result{}
	qEff := q
	var classOf []int32 // original pattern node -> qEff node
	if opts.MinimizeQuery {
		res.Stats.MinimizedFrom = q.Size()
		qEff, classOf = MinimizeQuery(q)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Global dual-simulation filter (Fig. 5 precomputation). Either way
	// cand ends up holding every data node that can be a candidate of some
	// pattern node in any ball: the matches of the global relation, or the
	// nodes carrying a pattern label. The relation and its node set live in
	// a pooled scratch held until the balls have read them.
	var global simulation.Relation
	var cand *graph.NodeSet
	if opts.DualFilter {
		sc := exec.GetScratch()
		defer sc.Release()
		rel, ok, err := simulation.DualIn(ctx, qEff, g, &sc.Sim)
		if err != nil {
			return nil, err
		}
		if !ok {
			// Q ⊀D G: no ball can match (Proposition 1).
			res.Stats.BallsSkipped = g.NumNodes()
			return res, nil
		}
		global = rel
		cand = rel.DataNodesIn(g.NumNodes(), &sc.Sim)
	} else {
		cand = g.NodesLabeledIn(qEff)
	}

	// Every other node is a skipped ball: a perfect subgraph must contain
	// its center (ExtractMaxPG line 1). With the global relation available,
	// centers it leaves unmatched are skipped before their ball is even
	// built — the main saving of the dual-simulation filter. Plain Match
	// applies only the trivial label precheck (a center whose label never
	// occurs in Q cannot appear in any Sw); Fig. 3 nominally builds those
	// balls too, but their DualSim is a no-op, and skipping them is the
	// obvious implementation choice the paper's measured Match/Match+ ratio
	// (≈3/2) implies.
	centers := cand.Slice()
	res.Stats.BallsSkipped = g.NumNodes() - len(centers)

	type centerResult struct {
		ps    *PerfectSubgraph
		stats Stats
	}
	out := make([]centerResult, len(centers))
	err := exec.Run(ctx, exec.Options{Workers: opts.Workers}, len(centers),
		func(s *exec.Scratch, pos int) centerResult {
			ball := s.Balls.BuildRestricted(g, centers[pos], radius, cand)
			ps, stats := EvalPreparedBallIn(qEff, ball, centers[pos], opts, global, &s.Sim)
			return centerResult{ps: ps, stats: stats}
		},
		func(pos int, cr centerResult) bool {
			out[pos] = cr
			return true
		})
	if err != nil {
		return nil, err
	}

	perCenter := make([]*PerfectSubgraph, len(out))
	for i, cr := range out {
		res.Stats.BallsExamined += cr.stats.BallsExamined
		res.Stats.BallsSkipped += cr.stats.BallsSkipped
		res.Stats.PairsRemoved += cr.stats.PairsRemoved
		perCenter[i] = cr.ps
	}
	res.Subgraphs = DedupSubgraphs(perCenter, &res.Stats)
	SortSubgraphs(res.Subgraphs)

	if opts.MinimizeQuery {
		for _, ps := range res.Subgraphs {
			ExpandRelation(ps, q, classOf)
		}
	}
	return res, nil
}

// EvalPreparedBallIn runs procedure DualSim followed by ExtractMaxPG
// (Fig. 3) on one caller-constructed ball under opts, returning the ball's
// maximum perfect subgraph (nil if none). A non-nil global projects a
// precomputed global dual-simulation relation onto the ball's members
// (Fig. 5 line 1) instead of starting from label candidates. center is the
// ball center in the parent graph's coordinates. The ball may be a graph of
// its own or a view of a query's kept graph (graph.BallScratch.View): the
// relation only ever holds members, so the matcher reads no node of the
// graph outside the ball. Callers are responsible for any pre-construction
// center filtering (label precheck or global-relation membership); this
// function always evaluates the ball it is given.
//
// The per-ball working state (candidate relation, pruning sets, refiner
// counters) is drawn from sc; a nil sc allocates it. The returned subgraph
// copies everything out of the ball and scratch, so both may be reused
// immediately. The executor (internal/exec) fans calls across a worker
// pool, so it must remain safe for concurrent use with a shared read-only
// q, ball graph and global.
func EvalPreparedBallIn(q *graph.Graph, ball *graph.Ball, center int32, opts Options, global simulation.Relation, sc *simulation.Scratch) (*PerfectSubgraph, Stats) {
	var stats Stats
	bg := ball.G

	// Initial candidates among the members: the global relation projected
	// onto the ball (Fig. 5 line 1), or the label candidates.
	rel := sc.Relation(q.NumNodes(), bg.NumNodes())
	for i := range ball.Dist {
		v := ball.Member(i)
		for u := range rel {
			if global != nil && global[u].Contains(ball.Orig[v]) || global == nil && q.Label(int32(u)) == bg.Label(v) {
				rel[u].Add(v)
			}
		}
	}

	// Connectivity pruning (Section 4.2): keep only candidates in the
	// center's component of the candidate-induced subgraph.
	if opts.ConnectivityPruning {
		keep := sc.Component(bg, ball.Center, rel.DataNodesIn(bg.NumNodes(), sc))
		if keep == nil {
			stats.BallsSkipped++
			return nil, stats
		}
		for u := range rel {
			rel[u].IntersectWith(keep)
		}
	}

	stats.BallsExamined++
	refiner := simulation.NewRefinerIn(q, bg, rel, simulation.ChildParent, sc)
	if global != nil && !opts.ConnectivityPruning {
		// Proposition 5: only border nodes can have lost support to the
		// ball cut; everything else is revalidated transitively.
		for i := range ball.Dist {
			if !ball.IsBorder(i) {
				continue
			}
			for u := int32(0); u < int32(q.NumNodes()); u++ {
				refiner.EnqueueSuspect(u, ball.Member(i))
			}
		}
	} else {
		// Pruning may remove interior candidates, so every survivor must
		// be re-checked; plain Match re-checks everything anyway.
		refiner.SeedAll()
	}
	ok := refiner.Run()
	stats.PairsRemoved += refiner.Removed()
	if !ok {
		return nil, stats
	}
	return extractMaxPG(q, ball, rel, center, sc), stats
}

// extractMaxPG is procedure ExtractMaxPG (Fig. 3): return the connected
// component containing the ball center in the match graph w.r.t. Sw, or nil
// when the center is unmatched. The component is found on the ball graph
// itself: a ball edge (v, w) is a match edge iff some pattern edge (u, u2)
// has v ∈ rel[u] and w ∈ rel[u2]. Ball ids ascend with Orig, so walking them
// ascending yields Nodes and every Rel row sorted, with no map; the edges,
// collected by the walk, take one sort of the component's few.
// simulation.BuildMatchGraph and ComponentOf compute the same from the
// definition.
func extractMaxPG(q *graph.Graph, ball *graph.Ball, rel simulation.Relation, center int32, sc *simulation.Scratch) *PerfectSubgraph {
	centerMatched := false
	for u := range rel {
		if rel[u].Contains(ball.Center) {
			centerMatched = true
			break
		}
	}
	if !centerMatched {
		return nil
	}
	// The pattern's edges, read once per ball; buffers start on the stack
	// and move to the heap only for a pattern or component larger than them.
	var qeBuf [16][2]int32
	var rowBuf [64]int32
	qe := qeBuf[:0]
	qOut, _ := q.Rows()
	for u := int32(0); u < int32(q.NumNodes()); u++ {
		for _, u2 := range qOut.AppendRow(rowBuf[:0], u) {
			qe = append(qe, [2]int32{u, u2})
		}
	}

	// The center's component, breadth-first over match edges in both
	// directions; comp doubles as the queue. Both ends of a match edge lie
	// in one component, so the component's edges are the match edges out of
	// its nodes: the walk collects them, in ball ids, as it reads the
	// out-rows.
	bg := ball.G
	in := sc.SpareSet(bg.NumNodes())
	in.Add(ball.Center)
	var compBuf [64]int32
	var edgeBuf [64][2]int32
	comp, edges := append(compBuf[:0], ball.Center), edgeBuf[:0]
	row := rowBuf[:0]
	for i := 0; i < len(comp); i++ {
		v := comp[i]
		row = bg.AppendOut(row[:0], v)
		for _, w := range row {
			if serves(qe, rel, v, w) {
				edges = append(edges, [2]int32{v, w})
				if in.Add(w) {
					comp = append(comp, w)
				}
			}
		}
		row = bg.AppendIn(row[:0], v)
		for _, w := range row {
			if !in.Contains(w) && serves(qe, rel, w, v) {
				in.Add(w)
				comp = append(comp, w)
			}
		}
	}

	// Nodes and the Rel rows are windows of one arena; a Rel row is nil
	// where the component holds no match of the pattern node. Ball ids
	// ascend with Orig, so the edges sorted by ball ids are sorted.
	total := len(comp)
	for u := range rel {
		for v := rel[u].Next(0); v >= 0; v = rel[u].Next(v + 1) {
			if in.Contains(v) {
				total++
			}
		}
	}
	arena := make([]int32, 0, total)
	ps := &PerfectSubgraph{Center: center, Rel: make([][]int32, len(rel))}
	for v := in.Next(0); v >= 0; v = in.Next(v + 1) {
		arena = append(arena, ball.Orig[v])
	}
	ps.Nodes = arena[:len(arena):len(arena)]
	slices.SortFunc(edges, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	ps.Edges = make([][2]int32, len(edges))
	for i, e := range edges {
		ps.Edges[i] = [2]int32{ball.Orig[e[0]], ball.Orig[e[1]]}
	}
	for u := range rel {
		lo := len(arena)
		for v := rel[u].Next(0); v >= 0; v = rel[u].Next(v + 1) {
			if in.Contains(v) {
				arena = append(arena, ball.Orig[v])
			}
		}
		if len(arena) > lo {
			ps.Rel[u] = arena[lo:len(arena):len(arena)]
		}
	}
	return ps
}

// ExpandRelation rewrites one subgraph's relation from minimized-pattern
// nodes back to the original pattern q, given the classOf mapping returned
// by MinimizeQuery. Streaming consumers (internal/engine) apply it per
// subgraph as results arrive instead of in a final pass.
func ExpandRelation(ps *PerfectSubgraph, q *graph.Graph, classOf []int32) {
	expanded := make([][]int32, q.NumNodes())
	for u := range expanded {
		expanded[u] = ps.Rel[classOf[u]]
	}
	ps.Rel = expanded
}

// serves reports whether data edge (v, w) serves one of the pattern edges
// qe under rel: v ∈ rel[u] and w ∈ rel[u2] for some (u, u2) in qe.
func serves(qe [][2]int32, rel simulation.Relation, v, w int32) bool {
	for _, e := range qe {
		if rel[e[0]].Contains(v) && rel[e[1]].Contains(w) {
			return true
		}
	}
	return false
}
