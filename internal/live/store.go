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
//     built copy-on-write: adjacency rows of untouched nodes, the pages of
//     row headers no touched node lives in (graph.Paged), the label table
//     and the label rows no node joined or left are shared with prior
//     versions; only what the batch touched is copied, and what the previous
//     version derived from its graph (label ranks, neighbour-label
//     signatures) is inherited and patched over the touched region, not
//     derived again. In-flight queries keep the version they started with.
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
	"maps"
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
	// PagesCopied counts the pages of adjacency row headers the batch
	// copied; every other page the new version shares with its predecessor.
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
	// shared with the current version: a batch never writes it in place, it
	// copies what it touches — the row, the page of row headers the row's
	// node lives in, and nodeLbl whole when a label changes in place — into
	// a batchState that replaces this on commit. Label rows are the current
	// version's graph's; a batch copies the ones it changes.
	nodeLbl  []int32
	out, in  graph.Paged[[]int32]
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
	// empties itself when a query reaches a newer one, while the signatures
	// pruning reads live on each version's graph.
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
		nodeLbl:   make([]int32, n),
		numEdges:  g.NumEdges(),
		queries:   make(map[int64]*StandingQuery),
		planner:   plan.NewPlanner(),
	}
	s.out, s.in = g.Rows()
	for v := int32(0); v < int32(n); v++ {
		s.nodeLbl[v] = g.Label(v)
	}
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
	out, in       *graph.PagedEdit[[]int32]
	touchedOut    map[int32]bool
	touchedIn     map[int32]bool
	byLabel       map[int32][]int32 // the label rows the batch changed, owned
	numEdges      int

	seeds      []int32 // nodes whose ≤ dQ-hop neighborhoods are dirty; may repeat
	relabelled []int32 // nodes whose label changed, and added nodes; may repeat
	added      []int32
}

func (s *Store) newBatch() *batchState {
	b := &batchState{
		g:          s.Current().Graph(),
		nodeLbl:    s.nodeLbl,
		out:        s.out.Edit(),
		in:         s.in.Edit(),
		touchedOut: make(map[int32]bool),
		touchedIn:  make(map[int32]bool),
		byLabel:    make(map[int32][]int32),
		numEdges:   s.numEdges,
	}
	return b
}

func (b *batchState) ownOut(u int32) {
	if !b.touchedOut[u] {
		b.out.Set(u, slices.Clone(b.out.At(u)))
		b.touchedOut[u] = true
	}
}

func (b *batchState) ownIn(v int32) {
	if !b.touchedIn[v] {
		b.in.Set(v, slices.Clone(b.in.At(v)))
		b.touchedIn[v] = true
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
		b.out.Append(nil)
		b.in.Append(nil)
		b.touchedOut[v] = true
		b.touchedIn[v] = true
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
			b.ownOut(m.U)
			xs, ok := insertSorted(b.out.At(m.U), m.V)
			if !ok {
				return nil // re-inserting an existing edge is a no-op
			}
			b.out.Set(m.U, xs)
			b.ownIn(m.V)
			xs, _ = insertSorted(b.in.At(m.V), m.U)
			b.in.Set(m.V, xs)
			b.numEdges++
		} else {
			b.ownOut(m.U)
			xs, ok := removeSorted(b.out.At(m.U), m.V)
			if !ok {
				return fmt.Errorf("live: edge (%d,%d) does not exist", m.U, m.V)
			}
			b.out.Set(m.U, xs)
			b.ownIn(m.V)
			xs, _ = removeSorted(b.in.At(m.V), m.U)
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
		for _, w := range b.out.At(m.Node) {
			if w == m.Node {
				continue
			}
			b.ownIn(w)
			xs, _ := removeSorted(b.in.At(w), m.Node)
			b.in.Set(w, xs)
		}
		b.numEdges -= len(b.out.At(m.Node))
		b.out.Set(m.Node, nil) // replaces the header; the shared row stays intact
		b.touchedOut[m.Node] = true
		for _, w := range b.in.At(m.Node) {
			if w == m.Node {
				continue // the self-loop was already counted once above
			}
			b.ownOut(w)
			xs, _ := removeSorted(b.out.At(w), m.Node)
			b.out.Set(w, xs)
			b.numEdges--
		}
		b.in.Set(m.Node, nil)
		b.touchedIn[m.Node] = true
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
// (annotated with the header pages the batch copied), and one
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
	s.nodeLbl = b.nodeLbl
	s.out = b.out.Freeze()
	s.in = b.in.Freeze()
	s.numEdges = b.numEdges
	ver := s.publishLocked(b)
	liveBatches.Inc()
	liveMutations.Add(int64(len(muts)))
	hdrPages := b.out.Copied() + b.in.Copied()
	if applySp.Recording() {
		applySp.End(
			obs.Attr{Key: "mutations", Value: int64(len(muts))},
			obs.Attr{Key: "version", Value: int64(ver.id)},
			obs.Attr{Key: "pages_copied", Value: int64(hdrPages)})
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
		PagesCopied: hdrPages,
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
// patched over the rows and labels b rewrote — not over its seeds:
// delete_node seeds only the node, yet every former neighbour lost a row
// entry, and set_label moves no row, yet changes its neighbours' signatures.
// Callers hold mu.
func (s *Store) publishLocked(b *batchState) *Version {
	if s.labelsDirty || s.frozen == nil {
		s.frozen = s.labels.Clone()
		s.labelsDirty = false
	}
	prev := s.current.Load()
	name := s.name
	if name == "" {
		name = "live"
	}
	rows := slices.Collect(maps.Keys(b.touchedOut))
	for v := range b.touchedIn {
		if !b.touchedOut[v] {
			rows = append(rows, v)
		}
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
func (s *Store) dirtyCenters(seeds []int32, radius int, oldOut, oldIn graph.Paged[[]int32]) []int32 {
	s.reach.Reset(s.out.Len())
	s.sweep(seeds, radius, oldOut, oldIn)
	s.sweep(seeds, radius, s.out, s.in)
	return s.reach.Slice()
}

// sweep adds to s.reach every node within radius hops of a seed under the
// given adjacency. Seeds the adjacency does not cover — nodes the batch
// added, seen from the old side — are skipped.
func (s *Store) sweep(seeds []int32, radius int, out, in graph.Paged[[]int32]) {
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
			for _, w := range out.At(v) {
				visit(w)
			}
			for _, w := range in.At(v) {
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
