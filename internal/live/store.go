// Package live is the dynamic-graph layer of the serving system: a mutable
// graph store that accepts batched node/edge insertions and deletions while
// continuing to answer strong-simulation queries, and a set of standing
// queries whose full result sets are kept current incrementally.
//
// It closes the loop the paper leaves open in Section 6 ("incremental
// methods for strong simulation ... in response to (frequent) changes to
// real-life graphs") at serving scale: it maintains many patterns over one
// shared store, applies updates in atomic batches, and re-evaluates only
// the ≤ dQ-hop dirty centers of each pattern on the query engine's worker
// pool. The churn soak holds every standing query to a from-scratch Match
// at every version.
//
// Two properties organize the design:
//
//   - Readers never block on writers. Every successful update batch
//     publishes a new immutable version — a full *graph.Graph behind an
//     engine.Snapshot — through one atomic pointer swap. The version is
//     built copy-on-write: the adjacency pages no touched node lives in
//     (graph.CSR), the label table and the label rows no node joined or left
//     are shared with prior versions; only what the batch touched is
//     rebuilt, and what the previous version derived from its graph (label
//     ranks, neighbour-label signatures) is inherited and patched over the
//     touched region, not derived again. In-flight queries keep the version
//     they started with.
//
//   - Standing-query maintenance is ball-local. An update can change the
//     ball Ĝ[w, dQ] only if w lies within dQ undirected hops of a mutated
//     node in the graph before or after the batch (Store.dirtyCenters), so
//     maintenance re-evaluates exactly those centers and keeps every other
//     cached perfect subgraph. Results are
//     assembled with the same dedup and ordering as engine.Match, so a
//     standing query's result set is byte-identical to re-running Match
//     from scratch on the current version. Only standing queries are
//     maintained this way: one-shot matches share the store's plan cache,
//     whose entries live for one version (see package plan).
//
// See DESIGN.md for the versioning model and memory behavior, and
// cmd/strongsimd for the HTTP surface (POST /update, POST/GET/DELETE
// /queries, GET /queries/{id}, plus the engine's /match and /graph).
package live

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
)

// Store metrics, registered into the process-wide registry. A process
// normally serves one store; with several, the counters aggregate and the
// version gauge reports the most recently published version of any store.
var (
	liveVersion = obs.Default.Gauge("live_version",
		"most recently published store version")
	liveBatches = obs.Default.Counter("live_update_batches_total",
		"update batches applied and published")
	liveMutations = obs.Default.Counter("live_mutations_total",
		"mutations applied inside successful update batches")
	liveBatchesRejected = obs.Default.Counter("live_update_batches_rejected_total",
		"update batches rejected with no state change")
	liveStandingQueries = obs.Default.Gauge("live_standing_queries",
		"standing queries currently registered")
	liveRecomputedBalls = obs.Default.Counter("live_standing_recomputed_balls_total",
		"balls built and evaluated maintaining standing queries after update batches")
	liveUnanchored = obs.Default.Counter("live_standing_unanchored_total",
		"centers of standing queries that carry a pattern label but fail the anchor check, so no ball was built for them")
	liveStandingDeltas = obs.Default.Counter("live_standing_deltas_total",
		"standing-query maintenance steps whose result set actually changed")
)

// TombstoneLabel is the label deleted nodes are re-labeled with. Node ids
// are dense and versions share adjacency, so deletion cannot compact ids;
// instead DeleteNode drops every incident edge and moves the node to this
// label — the node keeps its id but can never match again. The label
// contains a space: the text format's labels are whitespace-delimited
// tokens, so no pattern reaching Register or /match can ever parse to it,
// and add_node rejects it explicitly.
const TombstoneLabel = "\x00deleted node"

// Op names one mutation kind in a batch.
type Op string

// The mutation kinds accepted by Store.Apply.
const (
	OpAddNode    Op = "add_node"
	OpInsertEdge Op = "insert_edge"
	OpDeleteEdge Op = "delete_edge"
	OpDeleteNode Op = "delete_node"
	OpSetLabel   Op = "set_label"
)

// Mutation is one element of an update batch. Which fields matter depends
// on Op: add_node reads Label; insert_edge and delete_edge read U and V;
// delete_node reads Node; set_label reads Node and Label. Edge mutations
// may reference nodes added earlier in the same batch.
type Mutation struct {
	Op    Op     `json:"op"`
	Label string `json:"label,omitempty"`
	U     int32  `json:"u"`
	V     int32  `json:"v"`
	Node  int32  `json:"node"`
}

// Config configures a Store.
type Config struct {
	// Workers is the number of goroutines evaluating balls during standing-
	// query maintenance and registration; 0 uses GOMAXPROCS. It is also the
	// worker budget of every published version's engine.
	Workers int
}

// Version is one immutable published state of the store: a dense id and a
// query engine over the snapshot of the graph at that state. Versions
// remain fully usable after newer versions are published.
type Version struct {
	id  uint64
	eng *engine.Engine
}

// ID returns the version number; version 0 is the graph the store was
// created with, and each successful update batch increments it by one.
func (v *Version) ID() uint64 { return v.id }

// Engine returns the query engine over this version.
func (v *Version) Engine() *engine.Engine { return v.eng }

// Graph returns this version's immutable data graph.
func (v *Version) Graph() *graph.Graph { return v.eng.Snapshot().Graph() }

// UpdateResult reports one applied batch.
type UpdateResult struct {
	// Version is the id of the newly published version.
	Version uint64
	// AddedNodes lists the ids assigned to add_node mutations, in batch
	// order.
	AddedNodes []int32
	// Recomputed counts, per standing query id, the balls built to maintain
	// it — the dirty centers that survived the label precheck and the anchor
	// check.
	Recomputed map[int64]int
	// PagesCopied counts the adjacency pages — 512 nodes' rows of one
	// direction, offsets and targets — the batch rebuilt because it replaced
	// a row in them; every other page the new version shares with its
	// predecessor. A page that added nodes opened is new, not counted.
	PagesCopied int
	// Nodes and Edges are the post-batch graph size.
	Nodes, Edges int
}

// Store is a mutable versioned graph store with standing queries. All
// mutations and registrations are serialized by an internal lock; reads —
// Current, query results, and every query against a published version —
// are lock-free and never block on writers.
type Store struct {
	workers int
	name    string

	// current is the latest published version, swapped atomically so
	// readers never observe a partially built state.
	current atomic.Pointer[Version]

	mu sync.Mutex // guards everything below

	// labels is the master intern table. It is mutated only under mu (new
	// node labels, pattern labels at registration); published versions see
	// frozen clones, re-cloned only when the table grew since the last
	// publish.
	labels      *graph.Labels
	frozen      *graph.Labels
	labelsDirty bool
	tombstone   int32 // label id of TombstoneLabel, -1 until first deletion

	// Graph state in the exact representation graph.FromParts adopts, and
	// shared with the current version. A batch never writes it in place: its
	// batchState records the rows it replaces (the adjacency pages holding
	// them are rebuilt on commit), copies nodeLbl whole before a label
	// changes in place, and replaces this on commit. Label rows are the
	// current version's graph's; a batch copies the ones it changes.
	nodeLbl  []int32
	out, in  graph.CSR
	numEdges int
	nextID   int64

	// Scratch of dirtyCenters, reused across batches: the BFS of one side,
	// and the union of both sides' reach.
	visited, reach graph.NodeSet
	queue          []int32

	// qmu guards only the queries map, separately from mu, so lookups and
	// listings stay responsive while Apply holds mu through maintenance.
	// Lock ordering: mu before qmu, never the reverse.
	qmu     sync.RWMutex
	queries map[int64]*StandingQuery

	// planner is the query planner shared by every published version: its
	// match-result cache holds the newest version queried through it and
	// empties itself when a query reaches a newer one.
	planner *plan.Planner
}

// NewStore wraps an initial graph as version 0 of a mutable store. The
// graph and its label table must not be mutated afterwards (the same
// contract as engine.NewSnapshot); the store never mutates them either —
// the first update batch copies what it touches.
func NewStore(g *graph.Graph, cfg Config) *Store {
	n := g.NumNodes()
	s := &Store{
		workers:   cfg.Workers,
		name:      g.Name(),
		labels:    g.Labels().Clone(),
		frozen:    g.Labels(),
		tombstone: -1,
		// Shared with version 0, capped so the first add_node reallocates: a
		// batch never writes an element a published version can read.
		nodeLbl:  g.NodeLabels()[:n:n],
		numEdges: g.NumEdges(),
		queries:  make(map[int64]*StandingQuery),
		planner:  plan.NewPlanner(),
	}
	s.out, s.in = g.Rows()
	s.current.Store(&Version{id: 0, eng: engine.New(g, engine.Config{Workers: cfg.Workers})})
	liveVersion.Set(0)
	return s
}

// Current returns the latest published version.
func (s *Store) Current() *Version { return s.current.Load() }

// Engine returns the latest version's query engine. The serving layer
// resolves it once per request, so a request sees one version throughout.
func (s *Store) Engine() *engine.Engine { return s.Current().Engine() }

// Planner returns the store's query planner, for the serving layer to hand
// to engine.QueryOptions.Planner. Apply never touches it: a cached answer is
// valid for the one version it was computed on, and the first query on a
// newer version empties the cache.
func (s *Store) Planner() *plan.Planner { return s.planner }

// batchState is the copy-on-write working state of one Apply call. Nothing
// in it is visible to readers until publish; abandoning it on error leaves
// the store exactly as before. What a batch may write in place is what this
// batch copied — never what an earlier one did, whose copies readers of the
// current version hold by now.
type batchState struct {
	g             *graph.Graph // the current version's, which the batch follows
	nodeLbl       []int32
	nodeLblCopied bool // full copy taken (a label changed in place)
	out, in       *graph.CSREdit
	byLabel       map[int32][]int32 // the label rows the batch changed, owned
	numEdges      int

	seeds      []int32 // nodes whose ≤ dQ-hop neighborhoods are dirty; may repeat
	relabelled []int32 // nodes whose label changed, and added nodes; may repeat
	added      []int32
}

func (s *Store) newBatch() *batchState {
	return &batchState{
		g:        s.Current().Graph(),
		nodeLbl:  s.nodeLbl,
		out:      s.out.Edit(),
		in:       s.in.Edit(),
		byLabel:  make(map[int32][]int32),
		numEdges: s.numEdges,
	}
}

func (b *batchState) ownByLabel(lbl int32) {
	if _, ok := b.byLabel[lbl]; !ok {
		b.byLabel[lbl] = slices.Clone(b.g.NodesWithLabel(lbl))
	}
}

func (b *batchState) checkNode(v int32, what string) error {
	if v < 0 || int(v) >= len(b.nodeLbl) {
		return fmt.Errorf("live: %s names unknown node %d (have %d)", what, v, len(b.nodeLbl))
	}
	return nil
}

// insertSorted adds v to a sorted owned slice; false if already present.
func insertSorted(xs []int32, v int32) ([]int32, bool) {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= v })
	if i < len(xs) && xs[i] == v {
		return xs, false
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs, true
}

// removeSorted deletes v from a sorted owned slice; false if absent.
func removeSorted(xs []int32, v int32) ([]int32, bool) {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= v })
	if i >= len(xs) || xs[i] != v {
		return xs, false
	}
	return append(xs[:i], xs[i+1:]...), true
}

func (s *Store) applyOne(b *batchState, m Mutation) error {
	switch m.Op {
	case OpAddNode:
		if m.Label == "" {
			return fmt.Errorf("live: add_node requires a label")
		}
		if m.Label == TombstoneLabel {
			return fmt.Errorf("live: label is reserved")
		}
		lbl := s.labels.ID(m.Label)
		if lbl == graph.NoLabel {
			// Interning is append-only and survives even a failed batch
			// (identifiers must stay stable); flag the publish-time clone
			// immediately so no later version ships a table missing it.
			lbl = s.labels.Intern(m.Label)
			s.labelsDirty = true
		}
		v := int32(len(b.nodeLbl))
		b.nodeLbl = append(b.nodeLbl, lbl)
		b.out.Append()
		b.in.Append()
		b.ownByLabel(lbl)
		b.byLabel[lbl] = append(b.byLabel[lbl], v) // ids grow, stays sorted
		b.added = append(b.added, v)
		b.relabelled = append(b.relabelled, v)
		b.seeds = append(b.seeds, v)
		return nil

	case OpInsertEdge, OpDeleteEdge:
		if err := b.checkNode(m.U, string(m.Op)); err != nil {
			return err
		}
		if err := b.checkNode(m.V, string(m.Op)); err != nil {
			return err
		}
		if s.isTombstone(b.nodeLbl[m.U]) || s.isTombstone(b.nodeLbl[m.V]) {
			return fmt.Errorf("live: %s (%d,%d) touches a deleted node", m.Op, m.U, m.V)
		}
		if m.Op == OpInsertEdge {
			xs, ok := insertSorted(b.out.Own(m.U), m.V)
			if !ok {
				return nil // re-inserting an existing edge is a no-op
			}
			b.out.Set(m.U, xs)
			xs, _ = insertSorted(b.in.Own(m.V), m.U)
			b.in.Set(m.V, xs)
			b.numEdges++
		} else {
			xs, ok := removeSorted(b.out.Own(m.U), m.V)
			if !ok {
				return fmt.Errorf("live: edge (%d,%d) does not exist", m.U, m.V)
			}
			b.out.Set(m.U, xs)
			xs, _ = removeSorted(b.in.Own(m.V), m.U)
			b.in.Set(m.V, xs)
			b.numEdges--
		}
		b.seeds = append(b.seeds, m.U, m.V)
		return nil

	case OpDeleteNode:
		if err := b.checkNode(m.Node, "delete_node"); err != nil {
			return err
		}
		old := b.nodeLbl[m.Node]
		if s.isTombstone(old) {
			return fmt.Errorf("live: node %d is already deleted", m.Node)
		}
		if s.tombstone < 0 {
			s.tombstone = s.labels.Intern(TombstoneLabel)
			s.labelsDirty = true
		}
		// Drop every incident edge. The node itself is the only dirty seed
		// needed: any ball containing an incident edge, or the node's
		// label, contains the node.
		for _, w := range b.out.Row(m.Node) {
			if w == m.Node {
				continue
			}
			xs, _ := removeSorted(b.in.Own(w), m.Node)
			b.in.Set(w, xs)
		}
		b.numEdges -= len(b.out.Row(m.Node))
		b.out.Set(m.Node, nil)
		for _, w := range b.in.Row(m.Node) {
			if w == m.Node {
				continue // the self-loop was already counted once above
			}
			xs, _ := removeSorted(b.out.Own(w), m.Node)
			b.out.Set(w, xs)
			b.numEdges--
		}
		b.in.Set(m.Node, nil)
		// Re-label in place: this mutates a shared element, so the whole
		// label slice goes copy-on-write once per batch.
		if !b.nodeLblCopied {
			b.nodeLbl = append([]int32(nil), b.nodeLbl...)
			b.nodeLblCopied = true
		}
		b.nodeLbl[m.Node] = s.tombstone
		b.ownByLabel(old)
		b.byLabel[old], _ = removeSorted(b.byLabel[old], m.Node)
		b.ownByLabel(s.tombstone)
		b.byLabel[s.tombstone], _ = insertSorted(b.byLabel[s.tombstone], m.Node)
		b.relabelled = append(b.relabelled, m.Node)
		b.seeds = append(b.seeds, m.Node)
		return nil

	case OpSetLabel:
		if err := b.checkNode(m.Node, "set_label"); err != nil {
			return err
		}
		if m.Label == "" {
			return fmt.Errorf("live: set_label requires a label")
		}
		if m.Label == TombstoneLabel {
			return fmt.Errorf("live: label is reserved")
		}
		if s.isTombstone(b.nodeLbl[m.Node]) {
			return fmt.Errorf("live: set_label targets deleted node %d", m.Node)
		}
		lbl := s.labels.ID(m.Label)
		if lbl == graph.NoLabel {
			lbl = s.labels.Intern(m.Label)
			s.labelsDirty = true
		}
		old := b.nodeLbl[m.Node]
		if old == lbl {
			return nil // re-labeling to the current label is a no-op
		}
		if !b.nodeLblCopied {
			b.nodeLbl = append([]int32(nil), b.nodeLbl...)
			b.nodeLblCopied = true
		}
		b.nodeLbl[m.Node] = lbl
		b.ownByLabel(old)
		b.byLabel[old], _ = removeSorted(b.byLabel[old], m.Node)
		b.ownByLabel(lbl)
		b.byLabel[lbl], _ = insertSorted(b.byLabel[lbl], m.Node)
		b.relabelled = append(b.relabelled, m.Node)
		b.seeds = append(b.seeds, m.Node)
		return nil

	default:
		return fmt.Errorf("live: unknown op %q", m.Op)
	}
}

// Apply runs one update batch atomically: either every mutation is applied
// and a new version is published, or the first invalid mutation's error is
// returned and the store (and every standing query) is untouched. After
// publishing, every standing query is re-maintained by re-evaluating its
// dirty centers against the new version; Apply returns when all standing
// results are current.
//
// Mutations are applied in order, so edge mutations may reference nodes an
// earlier add_node in the same batch created. An empty batch is an error.
func (s *Store) Apply(muts []Mutation) (*UpdateResult, error) {
	return s.ApplyTraced(muts, obs.Span{})
}

// ApplyTraced is Apply under a parent span: the batch records one
// "live.apply" child covering mutation application and version publication
// (annotated with the adjacency pages the batch rebuilt), and one
// "live.maintain" child per standing query brought current, annotated with
// the query id, the balls built and the centers the anchor check spared
// one. A zero parent (the untraced path — Apply delegates here with one)
// records nothing.
func (s *Store) ApplyTraced(muts []Mutation, parent obs.Span) (*UpdateResult, error) {
	if len(muts) == 0 {
		return nil, fmt.Errorf("live: empty update batch")
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	oldOut, oldIn := s.out, s.in

	applySp := parent.StartChild("live.apply")
	b := s.newBatch()
	for i, m := range muts {
		if err := s.applyOne(b, m); err != nil {
			// Discarding b reverts all graph state; labels interned by the
			// failed batch stay in the master table, which is harmless
			// (identifiers are append-only and unused until referenced).
			liveBatchesRejected.Inc()
			applySp.EndStatus("error")
			return nil, fmt.Errorf("live: batch[%d]: %w", i, err)
		}
	}

	// Commit the working state and publish.
	rows := append(b.out.Replaced(), b.in.Replaced()...)
	s.nodeLbl = b.nodeLbl
	var outPages, inPages int
	s.out, outPages = b.out.Freeze()
	s.in, inPages = b.in.Freeze()
	s.numEdges = b.numEdges
	ver := s.publishLocked(b, rows)
	liveBatches.Inc()
	liveMutations.Add(int64(len(muts)))
	pages := outPages + inPages
	if applySp.Recording() {
		applySp.End(
			obs.Attr{Key: "mutations", Value: int64(len(muts))},
			obs.Attr{Key: "version", Value: int64(ver.id)},
			obs.Attr{Key: "pages_copied", Value: int64(pages)})
	}

	// Maintain standing queries against the new version.
	s.qmu.RLock()
	standing := make([]*StandingQuery, 0, len(s.queries))
	for _, sq := range s.queries {
		standing = append(standing, sq)
	}
	s.qmu.RUnlock()

	res := &UpdateResult{
		Version:     ver.id,
		AddedNodes:  b.added,
		Recomputed:  make(map[int64]int, len(standing)),
		PagesCopied: pages,
		Nodes:       len(s.nodeLbl),
		Edges:       s.numEdges,
	}
	// A query unregistered concurrently may still be maintained once here;
	// harmless, since nothing reads it afterwards. The dirty-center BFS
	// depends only on the radius; one traversal serves every standing query
	// of that radius.
	dirtyByRadius := make(map[int][]int32)
	for _, sq := range standing {
		dirty, ok := dirtyByRadius[sq.radius]
		if !ok {
			dirty = s.dirtyCenters(b.seeds, sq.radius, oldOut, oldIn)
			dirtyByRadius[sq.radius] = dirty
		}
		msp := parent.StartChild("live.maintain")
		n, unanchored := s.maintainLocked(sq, ver, dirty)
		res.Recomputed[sq.id] = n
		if msp.Recording() {
			msp.End(
				obs.Attr{Key: "query_id", Value: sq.id},
				obs.Attr{Key: "balls", Value: int64(n)},
				obs.Attr{Key: "unanchored", Value: int64(unanchored)})
		}
	}
	return res, nil
}

func (s *Store) isTombstone(lbl int32) bool { return s.tombstone >= 0 && lbl == s.tombstone }

// publishLocked freezes the current mutable state — b, just committed — as
// an immutable version and swaps it in. The version's graph inherits what
// its predecessor's derived, label ranks and signatures (graph.FromParts),
// patched over the adjacency rows b replaced (rows, repeats allowed) and the
// labels it rewrote — not over its seeds:
// delete_node seeds only the node, yet every former neighbour lost a row
// entry, and set_label moves no row, yet changes its neighbours' signatures.
// Callers hold mu.
func (s *Store) publishLocked(b *batchState, rows []int32) *Version {
	if s.labelsDirty || s.frozen == nil {
		s.frozen = s.labels.Clone()
		s.labelsDirty = false
	}
	prev := s.current.Load()
	name := s.name
	if name == "" {
		name = "live"
	}
	g := graph.FromParts(s.frozen, s.nodeLbl, s.out, s.in, b.byLabel, s.numEdges,
		fmt.Sprintf("%s@v%d", name, prev.id+1), prev.Graph(), graph.Delta{Rows: rows, Relabelled: b.relabelled})
	ver := &Version{id: prev.id + 1, eng: engine.New(g, engine.Config{Workers: s.workers})}
	ver.eng.Snapshot().SetVersion(ver.id)
	s.current.Store(ver)
	liveVersion.Set(int64(ver.id))
	return ver
}

// dirtyCenters returns, ascending and in a slice of its own, the centers
// within radius undirected hops of any seed under the pre-batch or the
// post-batch adjacency: one multi-source BFS per side, their reach united in
// a bitset and read back in id order.
func (s *Store) dirtyCenters(seeds []int32, radius int, oldOut, oldIn graph.CSR) []int32 {
	s.reach.Reset(s.out.Len())
	s.sweep(seeds, radius, oldOut, oldIn)
	s.sweep(seeds, radius, s.out, s.in)
	return s.reach.Slice()
}

// sweep adds to s.reach every node within radius hops of a seed under the
// given adjacency. Seeds the adjacency does not cover — nodes the batch
// added, seen from the old side — are skipped.
func (s *Store) sweep(seeds []int32, radius int, out, in graph.CSR) {
	s.visited.Reset(s.out.Len())
	q := s.queue[:0]
	visit := func(w int32) {
		if s.visited.Add(w) {
			q = append(q, w)
		}
	}
	for _, v := range seeds {
		if int(v) < out.Len() {
			visit(v)
		}
	}
	for lo, d := 0, 0; d < radius && lo < len(q); d++ {
		hi := len(q)
		for _, v := range q[lo:hi] {
			for _, w := range out.Row(v) {
				visit(w)
			}
			for _, w := range in.Row(v) {
				visit(w)
			}
		}
		lo = hi
	}
	for _, v := range q {
		s.reach.Add(v)
	}
	s.queue = q
}
