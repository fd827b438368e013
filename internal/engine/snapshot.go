package engine

import (
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/plan"
)

// Snapshot is a query-ready view of one immutable data graph: the graph
// itself, its frozen label table and its live-store version. One
// Snapshot is safe for any number of concurrent queries; everything mutable
// behind it is copied per request (label tables handed to ParsePattern).
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
}

// NewSnapshot prepares g for querying.
func NewSnapshot(g *graph.Graph) *Snapshot {
	return &Snapshot{g: g}
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

// PruneIndex returns a candidate-pruning index over the snapshot's graph,
// whose signatures the graph carries from its construction. No query reads
// it: every query takes the global dual-simulation filter.
//
// Deprecated: the engine always filters; kept only because bench/ reads it.
func (s *Snapshot) PruneIndex() *plan.Index { return plan.NewIndex(s.g) }

// ParsePattern parses a pattern graph in the text format of internal/graph
// against the snapshot's label table, which it reads and never writes
// (graph.ParseShared). Labels the data graph already knows keep their
// identifiers, so the pattern is label-compatible with the snapshot and
// shares its table; a pattern naming a label the data graph has never seen
// gets a private copy of the table with the label interned there, so
// concurrent calls never mutate shared state. A pattern node with such a
// fresh label simply has no candidates and the query returns no matches,
// which is the correct answer.
func (s *Snapshot) ParsePattern(src string) (*graph.Graph, error) {
	q, err := graph.ParseShared(src, s.g.Labels())
	if err != nil {
		return nil, err
	}
	if q.NumNodes() == 0 {
		return nil, fmt.Errorf("engine: pattern is empty")
	}
	return q, nil
}

// BallIn builds the whole ball Ĝ[center, radius] into bs (valid until its
// next build); a nil bs allocates a fresh ball. Queries do not come this
// way — their balls are views of the graph their candidates induce
// (BallScratch.View) — it is what a caller with no query at hand gets.
func (s *Snapshot) BallIn(bs *graph.BallScratch, center int32, radius int) *graph.Ball {
	if bs == nil {
		return graph.NewBall(s.g, center, radius)
	}
	return bs.Build(s.g, center, radius)
}

// CandidateCenters returns the data nodes whose label occurs in q — the only
// viable ball centers under core.Match's label precheck (a center absent
// from every candidate set cannot appear in any Sw, so its ball's DualSim is
// a no-op). Queries narrow it further with the global dual-simulation
// filter.
//
// Deprecated: the engine always filters; kept only because bench/ reads it.
func (s *Snapshot) CandidateCenters(q *graph.Graph) *graph.NodeSet {
	return s.g.NodesLabeledIn(q)
}
