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
//     outcome of the ball Ĝ[w, dQ] only if w lies within dQ undirected hops
//     of a mutated node in the graph before or after the batch, or dQ−1
//     hops when that node carries no standing query's label before or after
//     it (dirtySweep: one search per batch serves every radius), so
//     maintenance re-evaluates exactly those of its centers that carry a
//     pattern label and keeps every other cached perfect subgraph. Results are
//     assembled with the same dedup and ordering as engine.Match, so a
//     standing query's result set is byte-identical to re-running Match
//     from scratch on the current version. Only standing queries are
//     maintained this way: one-shot matches share the store's plan cache,
//     whose entries live for one version (see package plan).
//
// See DESIGN.md for the versioning model and memory behavior, and
// api.NewLiveServer for the HTTP surface: the /v1 tree (API.md), whose
// /v1/update and /v1/queries routes front Apply and the standing queries.
package live

import (
	"cmp"
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
		"centers of standing queries that carry a pattern label but fail the anchor check or the global dual filter, so no ball was built for them")
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
	// Workers caps the goroutines evaluating one query's balls — a served
	// match, or a standing query's registration or maintenance — from the
	// process's one exec pool; 0 uses GOMAXPROCS. Every published version's
	// engine takes it.
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
	// it — the dirty centers that survived the label precheck, the anchor
	// check and the global dual filter.
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
	// node labels, pattern labels at registration) and only ever appended
	// to; a publish hands the new version a frozen clone when the table
	// holds more labels than the current version's, and the current
	// version's table otherwise.
	labels    *graph.Labels
	tombstone int32 // label id of TombstoneLabel, -1 until first deletion

	// nodeLbl is the current version's node labels, capped at its length so
	// the first add_node reallocates: version 0's slice is the caller's
	// graph's, which other stores may share. A batch never writes it in
	// place; it copies it whole before a label changes and replaces it on
	// commit. Adjacency, label rows and the edge count are the current
	// version's graph's, which a batch starts from (batchState.g).
	nodeLbl []int32
	nextID  int64

	// sweep finds and hands out the dirty centers of a batch (maintainAll).
	sweep dirtySweep
	// dispatched, when set, sees every radius group right after its dirty
	// centers are handed out and before it is maintained: the dirty bitset
	// and the group, each query's eval buffer filled. Tests and benchmarks
	// read the sweep through it.
	dispatched func(radius int, dirty *graph.NodeSet, group []*StandingQuery)

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
	s := &Store{
		workers:   cfg.Workers,
		name:      g.Name(),
		labels:    g.Labels().Clone(),
		tombstone: -1,
		nodeLbl:   slices.Clip(g.NodeLabels()),
		queries:   make(map[int64]*StandingQuery),
		planner:   plan.NewPlanner(),
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
	out, in       *graph.CSREdit
	byLabel       map[int32][]int32 // the label rows the batch changed, owned
	numEdges      int

	seeds      []int32 // nodes whose ≤ dQ-hop neighborhoods are dirty; may repeat
	relabelled []int32 // nodes whose label changed, and added nodes; may repeat
	added      []int32
	// grew and shrank say whether the batch added adjacency (an edge
	// inserted, a node added) and whether it removed some (an edge or a node
	// deleted): which sides of it the dirty sweep reads.
	grew, shrank bool
}

func (s *Store) newBatch() *batchState {
	g := s.Current().Graph()
	out, in := g.Rows()
	return &batchState{
		g:        g,
		nodeLbl:  s.nodeLbl,
		out:      out.Edit(),
		in:       in.Edit(),
		byLabel:  make(map[int32][]int32),
		numEdges: g.NumEdges(),
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
		// Interning is append-only and survives even a failed batch
		// (identifiers must stay stable); the next publish sees the table
		// grew and clones it.
		lbl := s.labels.Intern(m.Label)
		v := int32(len(b.nodeLbl))
		b.nodeLbl = append(b.nodeLbl, lbl)
		b.out.Append()
		b.in.Append()
		b.ownByLabel(lbl)
		b.byLabel[lbl] = append(b.byLabel[lbl], v) // ids grow, stays sorted
		b.added = append(b.added, v)
		b.relabelled = append(b.relabelled, v)
		b.seeds = append(b.seeds, v)
		b.grew = true
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
			b.grew = true
		} else {
			xs, ok := removeSorted(b.out.Own(m.U), m.V)
			if !ok {
				return fmt.Errorf("live: edge (%d,%d) does not exist", m.U, m.V)
			}
			b.out.Set(m.U, xs)
			xs, _ = removeSorted(b.in.Own(m.V), m.U)
			b.in.Set(m.V, xs)
			b.numEdges--
			b.shrank = true
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
		}
		// Drop every incident edge. The node itself is the only dirty seed
		// needed: any ball containing an incident edge, or the node's
		// label, contains the node.
		outs := b.out.Own(m.Node)
		for _, w := range outs {
			if w == m.Node {
				continue
			}
			xs, _ := removeSorted(b.in.Own(w), m.Node)
			b.in.Set(w, xs)
		}
		b.numEdges -= len(outs)
		b.out.Set(m.Node, nil)
		for _, w := range b.in.Own(m.Node) {
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
		b.shrank = true
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
		lbl := s.labels.Intern(m.Label)
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
// (annotated with the adjacency pages the batch rebuilt), one "live.dirty"
// child per distinct standing radius — the sweep extended to that radius and
// its dirty centers handed out, annotated with the radius, the sides swept,
// the seeds carrying a standing label and the dirty centers — and one
// "live.maintain" child per standing query brought current, annotated with
// the query id, the dirty centers carrying a pattern label, the balls built
// and the centers the anchor check spared one. One dirty sweep serves every
// standing query of the batch, whatever its radius (maintainAll). A zero
// parent (the untraced path — Apply delegates here with one) records
// nothing.
func (s *Store) ApplyTraced(muts []Mutation, parent obs.Span) (*UpdateResult, error) {
	if len(muts) == 0 {
		return nil, fmt.Errorf("live: empty update batch")
	}
	s.mu.Lock()
	defer s.mu.Unlock()

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
	out, outPages := b.out.Freeze()
	in, inPages := b.in.Freeze()
	ver := s.publishLocked(b, out, in, rows)
	liveBatches.Inc()
	liveMutations.Add(int64(len(muts)))
	pages := outPages + inPages
	if applySp.Recording() {
		applySp.End(
			obs.Attr{Key: "mutations", Value: int64(len(muts))},
			obs.Attr{Key: "version", Value: int64(ver.id)},
			obs.Attr{Key: "pages_copied", Value: int64(pages)})
	}

	res := &UpdateResult{
		Version:     ver.id,
		AddedNodes:  b.added,
		PagesCopied: pages,
		Nodes:       len(s.nodeLbl),
		Edges:       ver.Graph().NumEdges(),
	}
	res.Recomputed = s.maintainAll(b, ver, parent)
	return res, nil
}

// maintainAll brings every standing query current with ver, which b just
// published, and returns the balls built per query id. The queries are
// maintained in groups of equal radius, ascending: one dirty sweep serves the
// whole batch (dirtySweep), extended to each group's radius in turn, and each
// group is handed its dirty centers by label before the sweep grows again.
// The seeds that carry a label of some standing query, before or after the
// batch, are swept to each group's radius; the others one hop less. Each
// group records a "live.dirty" span (its radius, the sides swept, the seeds
// that carry a standing label, the dirty centers) and each query a
// "live.maintain" span. A query unregistered concurrently may still be
// maintained once here; harmless, since nothing reads it afterwards. Callers
// hold mu.
func (s *Store) maintainAll(b *batchState, ver *Version, parent obs.Span) map[int64]int {
	s.qmu.RLock()
	standing := make([]*StandingQuery, 0, len(s.queries))
	for _, sq := range s.queries {
		standing = append(standing, sq)
	}
	s.qmu.RUnlock()
	recomputed := make(map[int64]int, len(standing))
	if len(standing) == 0 {
		return recomputed
	}
	slices.SortFunc(standing, func(a, b *StandingQuery) int {
		return cmp.Or(cmp.Compare(a.radius, b.radius), cmp.Compare(a.id, b.id))
	})

	// A seed carries a standing label when its label before or after the
	// batch is one of some standing query's pattern (dirtySweep).
	standingLbl := make([]bool, s.labels.Len())
	for _, sq := range standing {
		for _, lbl := range sq.labels {
			standingLbl[lbl] = true
		}
	}
	oldLbl := b.g.NodeLabels()
	early := func(v int32) bool {
		return standingLbl[s.nodeLbl[v]] || int(v) < len(oldLbl) && standingLbl[oldLbl[v]]
	}
	s.sweep.begin(b.seeds, early, b.g, ver.Graph(), b.grew, b.shrank)
	for len(standing) > 0 {
		radius := standing[0].radius
		k := 1
		for k < len(standing) && standing[k].radius == radius {
			k++
		}
		group := standing[:k]
		standing = standing[k:]

		dsp := parent.StartChild("live.dirty")
		s.sweep.extend(radius)
		s.sweep.dispatch(group, s.nodeLbl, s.labels.Len())
		if dsp.Recording() {
			dsp.End(
				obs.Attr{Key: "radius", Value: int64(radius)},
				obs.Attr{Key: "sides", Value: int64(s.sweep.sides)},
				obs.Attr{Key: "labelled_seeds", Value: int64(s.sweep.labelled)},
				obs.Attr{Key: "dirty", Value: int64(s.sweep.dirty.Len())})
		}
		if s.dispatched != nil {
			s.dispatched(radius, &s.sweep.dirty, group)
		}
		for _, sq := range group {
			msp := parent.StartChild("live.maintain")
			labelled := len(sq.eval)
			n, unanchored := s.maintainLocked(sq, ver, &s.sweep.dirty)
			recomputed[sq.id] = n
			if msp.Recording() {
				msp.End(
					obs.Attr{Key: "query_id", Value: sq.id},
					obs.Attr{Key: "labelled", Value: int64(labelled)},
					obs.Attr{Key: "balls", Value: int64(n)},
					obs.Attr{Key: "unanchored", Value: int64(unanchored)})
			}
		}
	}
	return recomputed
}

func (s *Store) isTombstone(lbl int32) bool { return s.tombstone >= 0 && lbl == s.tombstone }

// publishLocked publishes b, just committed to the adjacency out and in, as
// an immutable version and swaps it in. The version's graph inherits what
// its predecessor's — b.g — derived, label ranks and signatures
// (graph.FromParts), patched over the adjacency rows b replaced (rows,
// repeats allowed) and the labels it rewrote — not over its seeds:
// delete_node seeds only the node, yet every former neighbour lost a row
// entry, and set_label moves no row, yet changes its neighbours' signatures.
// Its label table is b.g's unless the master table grew since b.g's was
// cloned — by this batch, by a rejected one or by a registration; interning
// is append-only, so a longer table is the only way to differ. Callers hold
// mu.
func (s *Store) publishLocked(b *batchState, out, in graph.CSR, rows []int32) *Version {
	labels := b.g.Labels()
	if s.labels.Len() > labels.Len() {
		labels = s.labels.Clone()
	}
	prev := s.current.Load()
	name := s.name
	if name == "" {
		name = "live"
	}
	g := graph.FromParts(labels, b.nodeLbl, out, in, b.byLabel, b.numEdges,
		fmt.Sprintf("%s@v%d", name, prev.id+1), b.g, graph.Delta{Rows: rows, Relabelled: b.relabelled})
	ver := &Version{id: prev.id + 1, eng: engine.New(g, engine.Config{Workers: s.workers})}
	ver.eng.Snapshot().SetVersion(ver.id)
	s.current.Store(ver)
	liveVersion.Set(int64(ver.id))
	return ver
}
