package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/plan"
)

// Snapshot is a query-ready view of one immutable data graph: the graph
// itself, its frozen label table, and optional per-radius ball caches. One
// Snapshot is safe for any number of concurrent queries; everything mutable
// behind it is either guarded (ball caches) or copied per request (label
// tables handed to ParsePattern).
//
// The graph handed to NewSnapshot must not change afterwards — in
// particular, no further labels may be interned into its table. Graphs built
// by internal/graph are immutable once Build returns, so in practice the
// only obligation is to finish constructing every graph that shares the
// table before taking the snapshot.
type Snapshot struct {
	g *graph.Graph

	// version is the live-store version this snapshot was published as; 0
	// for standalone immutable graphs. The query planner keys cached match
	// results by it.
	version atomic.Uint64

	mu    sync.RWMutex
	balls map[int][]*graph.Ball // radius -> balls indexed by center

	// planIdx is the candidate-pruning index over g: inherited from the
	// previous version at publication (InheritPruneIndex) or built under
	// planMu on the first planned query, so unplanned deployments pay nothing.
	planMu  sync.Mutex
	planIdx atomic.Pointer[plan.Index]
}

// NewSnapshot prepares g for querying.
func NewSnapshot(g *graph.Graph) *Snapshot {
	return &Snapshot{g: g, balls: make(map[int][]*graph.Ball)}
}

// Graph returns the underlying data graph.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// SetVersion stamps the live-store version this snapshot belongs to.
// internal/live calls it once at publication, before the version becomes
// visible to queries; immutable deployments leave the zero value.
func (s *Snapshot) SetVersion(v uint64) { s.version.Store(v) }

// Version returns the live-store version of this snapshot (0 when the
// graph is not backed by a live store).
func (s *Snapshot) Version() uint64 { return s.version.Load() }

// PruneIndex returns the snapshot's candidate-pruning index, building it
// on first use when the snapshot inherited none (O(V+E); per-radius hop
// signatures are materialized lazily inside the index). The index is
// immutable alongside the graph and shared by every planned query against
// this snapshot.
func (s *Snapshot) PruneIndex() *plan.Index {
	if ix := s.planIdx.Load(); ix != nil {
		return ix
	}
	s.planMu.Lock()
	defer s.planMu.Unlock()
	ix := s.planIdx.Load()
	if ix == nil {
		ix = plan.NewIndex(s.g)
		s.planIdx.Store(ix)
	}
	return ix
}

// InheritPruneIndex gives s — the snapshot of the version d leads to from
// prev's — prev's pruning index patched across the batch (plan.Index.Patched)
// in place of a full build on s's first planned query. When prev never built
// one it does nothing and reports false: a deployment that never plans
// derives nothing. internal/live calls it at publication, before s is
// visible to queries.
func (s *Snapshot) InheritPruneIndex(prev *Snapshot, d plan.Delta) (plan.PatchStats, bool) {
	ix := prev.planIdx.Load()
	if ix == nil {
		return plan.PatchStats{}, false
	}
	nx, st := ix.Patched(s.g, d)
	s.planIdx.Store(nx)
	return st, true
}

// ParsePattern parses a pattern graph in the text format of internal/graph
// against a private copy of the snapshot's label table. Labels the data
// graph already knows keep their identifiers, so the pattern is
// label-compatible with the snapshot; labels the data graph has never seen
// are interned only into the copy, so concurrent calls never mutate shared
// state. A pattern node with such a fresh label simply has no candidates and
// the query returns no matches, which is the correct answer.
func (s *Snapshot) ParsePattern(src string) (*graph.Graph, error) {
	q, err := graph.ParseString(src, s.g.Labels().Clone())
	if err != nil {
		return nil, err
	}
	if q.NumNodes() == 0 {
		return nil, fmt.Errorf("engine: pattern is empty")
	}
	return q, nil
}

// PrepareBalls eagerly materializes Ĝ[v, radius] for every node v and caches
// the result, so queries whose effective radius equals a prepared one skip
// ball construction entirely. It returns the number of balls now cached for
// the radius and is idempotent; concurrent calls for the same radius may
// duplicate work but converge to one cache entry.
//
// Memory scales with the sum of ball sizes, which on dense graphs grows
// sharply with the radius — prepare only radii that are both hot and small
// (typical pattern diameters of 1-3 on sparse graphs).
func (s *Snapshot) PrepareBalls(radius int) int {
	if radius <= 0 {
		return 0
	}
	s.mu.RLock()
	cached := s.balls[radius]
	s.mu.RUnlock()
	if cached != nil {
		return len(cached)
	}

	n := s.g.NumNodes()
	balls := make([]*graph.Ball, n)
	// Cached balls outlive the build, so they are constructed with NewBall
	// (owned storage), not into worker scratch; exec supplies the pool.
	_ = exec.Run(context.Background(), exec.Options{}, n,
		func(_ *exec.Scratch, pos int) *graph.Ball {
			return graph.NewBall(s.g, int32(pos), radius)
		},
		func(pos int, b *graph.Ball) bool {
			balls[pos] = b
			return true
		})

	s.mu.Lock()
	if existing := s.balls[radius]; existing == nil {
		s.balls[radius] = balls
	}
	s.mu.Unlock()
	return n
}

// PreparedRadii returns the radii with a cached ball set, ascending.
func (s *Snapshot) PreparedRadii() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, 0, len(s.balls))
	for r := range s.balls {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// DropBalls releases the cached balls for a radius, freeing their memory.
func (s *Snapshot) DropBalls(radius int) {
	s.mu.Lock()
	delete(s.balls, radius)
	s.mu.Unlock()
}

// Ball returns Ĝ[center, radius], served from the cache when the radius was
// prepared and constructed on the fly otherwise. Cached balls are shared
// across queries and must be treated as read-only, which every evaluator in
// this repository already does.
func (s *Snapshot) Ball(center int32, radius int) *graph.Ball {
	return s.BallIn(nil, center, radius)
}

// BallIn is Ball with on-the-fly construction routed into bs: a cache hit
// returns the shared long-lived ball, a miss builds the whole ball into the
// scratch (valid until its next build). A nil bs allocates a fresh ball as
// NewBall does.
func (s *Snapshot) BallIn(bs *graph.BallScratch, center int32, radius int) *graph.Ball {
	if cached := s.preparedBalls(radius); cached != nil {
		return cached[center]
	}
	if bs == nil {
		return graph.NewBall(s.g, center, radius)
	}
	return bs.Build(s.g, center, radius)
}

// preparedBalls returns the balls PrepareBalls cached for the radius,
// indexed by center, or nil.
func (s *Snapshot) preparedBalls(radius int) []*graph.Ball {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.balls[radius]
}

// ballProvider is the ball provider stage of one exec run at a fixed
// radius. The prepared-ball cache is consulted once, here, not under the
// lock per ball: a prepared radius serves its shared whole balls, any other
// builds Ĝ[center, radius] restricted to cand into the worker's scratch.
// Both are the same ball to an evaluator whose candidates all lie in cand.
func (s *Snapshot) ballProvider(radius int, cand *graph.NodeSet) func(bs *graph.BallScratch, center int32) *graph.Ball {
	if cached := s.preparedBalls(radius); cached != nil {
		return func(_ *graph.BallScratch, center int32) *graph.Ball { return cached[center] }
	}
	return func(bs *graph.BallScratch, center int32) *graph.Ball {
		return bs.BuildRestricted(s.g, center, radius, cand)
	}
}

// CandidateCenters returns the data nodes whose label occurs in q — the only
// viable ball centers under the label precheck of plain Match (a center
// absent from every candidate set cannot appear in any Sw, so its ball's
// DualSim is a no-op). This is the snapshot-side half of the prefilter; the
// dual-simulation filter narrows it further per query.
func (s *Snapshot) CandidateCenters(q *graph.Graph) *graph.NodeSet {
	return s.g.NodesLabeledIn(q)
}
