package core

import (
	"context"
	"fmt"
	"sort"

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
		expandRelations(res, q, classOf)
	}
	return res, nil
}

// EvalPreparedBall runs procedure DualSim followed by ExtractMaxPG (Fig. 3)
// on a ball constructed by the caller, returning the ball's maximum perfect
// subgraph (nil if none) and the number of match pairs removed during
// refinement. The distributed evaluator (Section 4.3) assembles balls from
// fragment-local plus fetched adjacency and delegates here, guaranteeing
// distributed and centralized runs share one code path.
func EvalPreparedBall(q *graph.Graph, ball *graph.Ball, center int32) (*PerfectSubgraph, int) {
	ps, stats := EvalPreparedBallWith(q, ball, center, Options{}, nil)
	return ps, stats.PairsRemoved
}

// EvalPreparedBallWith is the options-aware form of EvalPreparedBall: it
// evaluates one caller-constructed ball under opts, optionally projecting a
// precomputed global dual-simulation relation onto the ball (Fig. 5 line 1)
// instead of starting from label candidates. center is the ball center in
// the parent graph's coordinates. Callers are responsible for any
// pre-construction center filtering (label precheck or global-relation
// membership); this function always evaluates the ball it is given. The
// executor (internal/exec) fans calls across a worker pool; it must
// therefore remain safe for concurrent use with a shared read-only q, ball
// and global.
func EvalPreparedBallWith(q *graph.Graph, ball *graph.Ball, center int32, opts Options, global simulation.Relation) (*PerfectSubgraph, Stats) {
	return EvalPreparedBallIn(q, ball, center, opts, global, nil)
}

// EvalPreparedBallIn is EvalPreparedBallWith with the per-ball working state
// (candidate relation, pruning sets, refiner counters) drawn from sc instead
// of freshly allocated — the evaluator stage of the exec pipeline. A nil sc
// allocates as before. The returned subgraph copies everything out of the
// ball and scratch, so both may be reused immediately.
func EvalPreparedBallIn(q *graph.Graph, ball *graph.Ball, center int32, opts Options, global simulation.Relation, sc *simulation.Scratch) (*PerfectSubgraph, Stats) {
	var stats Stats
	bg := ball.G

	// Initial candidates within the ball.
	var rel simulation.Relation
	if global != nil {
		// Project the global relation onto the ball (Fig. 5 line 1).
		rel = sc.Relation(q.NumNodes(), bg.NumNodes())
		for u := range global {
			for i, bv := range ball.Orig {
				if global[u].Contains(bv) {
					rel[u].Add(int32(i))
				}
			}
		}
	} else {
		rel = simulation.InitByLabelIn(q, bg, sc)
	}

	// Connectivity pruning (Section 4.2): keep only candidates in the
	// center's component of the candidate-induced subgraph.
	if opts.ConnectivityPruning {
		cand := rel.DataNodesIn(bg.NumNodes(), sc)
		if !cand.Contains(ball.Center) {
			stats.BallsSkipped++
			return nil, stats
		}
		comp := graph.ComponentWithin(bg, ball.Center, cand.Contains)
		keep := sc.SpareSet(bg.NumNodes())
		for _, v := range comp {
			keep.Add(v)
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
		for _, b := range ball.BorderNodes() {
			for u := int32(0); u < int32(q.NumNodes()); u++ {
				refiner.EnqueueSuspect(u, b)
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
	return extractMaxPG(q, ball, rel, center, &stats), stats
}

// extractMaxPG is procedure ExtractMaxPG (Fig. 3): return the connected
// component containing the ball center in the match graph w.r.t. Sw, or nil
// when the center is unmatched.
func extractMaxPG(q *graph.Graph, ball *graph.Ball, rel simulation.Relation, center int32, stats *Stats) *PerfectSubgraph {
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
	mg := simulation.BuildMatchGraph(q, ball.G, rel)
	nodes, edges, ok := mg.ComponentOf(ball.Center)
	if !ok {
		return nil
	}
	inComp := make(map[int32]bool, len(nodes))
	for _, v := range nodes {
		inComp[v] = true
	}
	ps := &PerfectSubgraph{Center: center, Rel: make(map[int32][]int32, len(rel))}
	ps.Nodes = make([]int32, len(nodes))
	for i, v := range nodes {
		ps.Nodes[i] = ball.Orig[v]
	}
	sort.Slice(ps.Nodes, func(i, j int) bool { return ps.Nodes[i] < ps.Nodes[j] })
	ps.Edges = make([][2]int32, len(edges))
	for i, e := range edges {
		ps.Edges[i] = [2]int32{ball.Orig[e[0]], ball.Orig[e[1]]}
	}
	sort.Slice(ps.Edges, func(i, j int) bool {
		if ps.Edges[i][0] != ps.Edges[j][0] {
			return ps.Edges[i][0] < ps.Edges[j][0]
		}
		return ps.Edges[i][1] < ps.Edges[j][1]
	})
	for u := range rel {
		var matches []int32
		rel[u].ForEach(func(v int32) {
			if inComp[v] {
				matches = append(matches, ball.Orig[v])
			}
		})
		sort.Slice(matches, func(i, j int) bool { return matches[i] < matches[j] })
		ps.Rel[int32(u)] = matches
	}
	return ps
}

// expandRelations rewrites every subgraph relation from minimized-pattern
// nodes back to the caller's original pattern nodes.
func expandRelations(res *Result, q *graph.Graph, classOf []int32) {
	for _, ps := range res.Subgraphs {
		ExpandRelation(ps, q, classOf)
	}
}

// ExpandRelation rewrites one subgraph's relation from minimized-pattern
// nodes back to the original pattern q, given the classOf mapping returned
// by MinimizeQuery. Streaming consumers (internal/engine) apply it per
// subgraph as results arrive instead of in a final pass.
func ExpandRelation(ps *PerfectSubgraph, q *graph.Graph, classOf []int32) {
	expanded := make(map[int32][]int32, q.NumNodes())
	for u := int32(0); u < int32(q.NumNodes()); u++ {
		expanded[u] = ps.Rel[classOf[u]]
	}
	ps.Rel = expanded
}
