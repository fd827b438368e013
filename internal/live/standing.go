package live

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
)

// StandingQuery is one registered pattern whose full strong-simulation
// result set the store keeps current. The per-center cache holds the
// maximum perfect subgraph of every ball that has one, exactly the
// intermediate state of a plain engine.Match; maintenance replaces only the
// outcomes of dirty centers. Readers access the assembled result through an
// atomic snapshot and never block on maintenance.
type StandingQuery struct {
	id      int64
	pattern *graph.Graph
	src     string
	radius  int
	// labels lists the distinct label ids of pattern: the labels under
	// which a batch's dirty centers are handed to the query.
	labels []int32
	// eval is the batch's dirty centers that carry a pattern label,
	// ascending: filled by dirtySweep.dispatch, read by maintainLocked and
	// reused across batches. Guarded by the store's lock.
	eval []int32

	// Maintenance state, guarded by the store's lock: the pre-dedup outcomes
	// of the matching centers only, ascending by Center, so its size follows
	// the result and not |V|. Replaced, never written in place.
	matched []*core.PerfectSubgraph

	// state is the published read side, swapped whole so readers never see
	// a half-maintained result.
	state atomic.Pointer[queryState]
}

// queryState is one immutable published standing-query result.
type queryState struct {
	version uint64
	result  *core.Result
	// Delta against the previous published state: subgraphs that appeared
	// and disappeared, in canonical order. For the registration state the
	// delta is the full result against an empty set.
	fromVersion uint64
	added       []*core.PerfectSubgraph
	removed     []*core.PerfectSubgraph
}

// ID returns the query's registration id.
func (sq *StandingQuery) ID() int64 { return sq.id }

// Pattern returns the registered pattern graph. Treat as read-only.
func (sq *StandingQuery) Pattern() *graph.Graph { return sq.pattern }

// Source returns the pattern text the query was registered with.
func (sq *StandingQuery) Source() string { return sq.src }

// Radius returns the maintained ball radius (the pattern diameter).
func (sq *StandingQuery) Radius() int { return sq.radius }

// Register parses a pattern (text format of internal/graph) against the
// store's master label table, evaluates it fully against the current
// version, and keeps its result set maintained across every future update
// batch until Unregister. The pattern must be non-empty and connected.
func (s *Store) Register(patternSrc string) (*StandingQuery, error) {
	return s.RegisterCtx(context.Background(), patternSrc, nil)
}

// RegisterCtx is Register with a context bounding the initial full
// evaluation (the expensive part of registration — every candidate center
// gets a ball) and an optional trace receiving its stage statistics and
// live progress. When ctx ends mid-evaluation the registration fails with
// ctx's error and no query is registered; interned pattern labels stay, as
// after any failed parse. Maintenance after future update batches is not
// affected — it always runs to completion so the per-center cache is never
// left half-updated.
func (s *Store) RegisterCtx(ctx context.Context, patternSrc string, trace *obs.QueryStats) (*StandingQuery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Parse against the master table itself: novel pattern labels are
	// interned for good, so their identifiers can never collide with
	// labels future updates introduce. (A per-query clone, as /match uses,
	// would be wrong here — standing queries outlive the snapshot they
	// were parsed against.)
	q, err := graph.ParseString(patternSrc, s.labels)
	if err != nil {
		return nil, fmt.Errorf("live: parsing pattern: %w", err)
	}
	if q.NumNodes() == 0 {
		return nil, fmt.Errorf("live: pattern is empty")
	}
	dq, connected := graph.Diameter(q)
	if !connected {
		return nil, fmt.Errorf("live: pattern graph must be connected (Section 2.1)")
	}

	ver := s.Current()
	sq := &StandingQuery{id: s.nextID, pattern: q, src: patternSrc, radius: dq}
	s.nextID++
	for u := int32(0); u < int32(q.NumNodes()); u++ {
		if lbl := q.Label(u); !slices.Contains(sq.labels, lbl) {
			sq.labels = append(sq.labels, lbl)
		}
	}

	// Initial evaluation: every candidate center that can anchor a match, on
	// the engine's pool.
	centers := ver.eng.Snapshot().Graph().NodesLabeledIn(q).Slice()
	fresh, _, err := evalMatched(ctx, ver.eng, q, sq.radius, centers, trace)
	if err != nil {
		return nil, err
	}
	sq.matched = slices.Clone(fresh) // fresh grew by appends: drop its spare capacity
	st := &queryState{version: ver.id, fromVersion: ver.id, result: assemble(sq.matched)}
	st.added = st.result.Subgraphs
	sq.state.Store(st)

	s.qmu.Lock()
	s.queries[sq.id] = sq
	liveStandingQueries.Set(int64(len(s.queries)))
	s.qmu.Unlock()
	return sq, nil
}

// Unregister removes a standing query; false if the id is unknown. It does
// not wait for in-flight maintenance: an update already running may bring
// the dropped query current one last time, which nothing observes.
func (s *Store) Unregister(id int64) bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if _, ok := s.queries[id]; !ok {
		return false
	}
	delete(s.queries, id)
	liveStandingQueries.Set(int64(len(s.queries)))
	return true
}

// Query returns the standing query registered under id, or nil.
func (s *Store) Query(id int64) *StandingQuery {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	return s.queries[id]
}

// Queries returns every registered standing query, ascending by id.
func (s *Store) Queries() []*StandingQuery {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	out := make([]*StandingQuery, 0, len(s.queries))
	for _, sq := range s.queries {
		out = append(out, sq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// NumQueries returns the number of registered standing queries.
func (s *Store) NumQueries() int {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	return len(s.queries)
}

// Result returns the query's current result set and the version it is
// exact for. The result is immutable and shared; treat as read-only. It is
// byte-identical to engine.Match of the pattern (plain options) against
// that version's graph.
func (sq *StandingQuery) Result() (*core.Result, uint64) {
	st := sq.state.Load()
	return st.result, st.version
}

// Delta returns the subgraphs that entered and left the result set in the
// most recent maintenance step, with the version interval they describe:
// the result at `to` is the result at `from` minus removed plus added. For
// a freshly registered query both versions are the registration version
// and added holds the full initial result.
func (sq *StandingQuery) Delta() (added, removed []*core.PerfectSubgraph, from, to uint64) {
	st := sq.state.Load()
	return st.added, st.removed, st.fromVersion, st.version
}

// maintainLocked brings one standing query up to date with a freshly
// published version: evaluate the centers the batch's dirty sweep handed it
// (sq.eval: the dirty centers carrying a pattern label, ascending) on the
// engine's worker pool, drop the outcome of every center in dirty, and
// publish the new assembled result with its delta. Returns the number of
// balls built, and of handed centers that got none because they cannot
// anchor a match or the global dual filter dropped them. Callers hold the
// store lock; dirty is read-only here.
func (s *Store) maintainLocked(sq *StandingQuery, ver *Version, dirty *graph.NodeSet) (balls, unanchored int) {
	labelled := len(sq.eval)
	// The error path is unreachable: the pattern was validated at
	// registration and the context cannot expire.
	fresh, balls, _ := evalMatched(context.Background(), ver.eng, sq.pattern, sq.radius, sq.eval, nil)
	unanchored = labelled - balls
	liveRecomputedBalls.Add(int64(balls))
	liveUnanchored.Add(int64(unanchored))
	matched := replaceDirty(sq.matched, dirty, fresh)

	prev := sq.state.Load()
	if balls == 0 && len(matched) == len(sq.matched) {
		// No center was evaluated and none lost an outcome, so the result
		// set cannot have moved: republish the previous result at the new
		// version with an empty delta, skipping reassembly and diffing — the
		// common case for updates far from any center that could anchor the
		// pattern.
		sq.state.Store(&queryState{version: ver.id, fromVersion: prev.version, result: prev.result})
		return 0, unanchored
	}
	sq.matched = matched
	st := &queryState{
		version:     ver.id,
		fromVersion: prev.version,
		result:      assemble(matched),
	}
	st.added, st.removed = diffResults(prev.result, st.result)
	sq.state.Store(st)
	if len(st.added)+len(st.removed) > 0 {
		liveStandingDeltas.Inc()
	}
	return balls, unanchored
}

// evalMatched evaluates the given ascending centers, every one carrying a
// label of q, on the engine's worker pool and returns the outcomes of those
// whose ball matched, in center order, and the number of balls built. No
// ball is built for a center that cannot anchor a match of q
// (plan.Anchored, which filters centers in place), nor for one that the
// global dual filter EvalCenters runs drops. The anchor check comes first:
// it reads a few adjacency rows where the filter sweeps the whole graph, and
// nearly every dirty center fails it, so most batches never run the filter.
func evalMatched(ctx context.Context, e *engine.Engine, q *graph.Graph, radius int, centers []int32, trace *obs.QueryStats) ([]*core.PerfectSubgraph, int, error) {
	centers = plan.Anchored(e.Snapshot().Graph(), q, radius, centers)
	if len(centers) == 0 {
		return nil, 0, nil
	}
	var out []*core.PerfectSubgraph
	balls := 0
	err := e.EvalCenters(ctx, q, radius, centers, trace, func(_ int, ps *core.PerfectSubgraph) {
		balls++
		if ps != nil {
			out = append(out, ps)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	return out, balls, nil
}

// replaceDirty returns matched with the outcome of every center in dirty
// dropped — whether or not the center was evaluated again: a center the
// batch relabelled out of the pattern or deleted loses its outcome too — and
// fresh, the new outcomes, merged in. matched and fresh are ascending by
// center. When nothing is dropped or added it returns matched itself, and a
// fresh slice otherwise.
func replaceDirty(matched []*core.PerfectSubgraph, dirty *graph.NodeSet, fresh []*core.PerfectSubgraph) []*core.PerfectSubgraph {
	i := 0
	for i < len(matched) && !dirty.Contains(matched[i].Center) {
		i++
	}
	if i == len(matched) && len(fresh) == 0 {
		return matched
	}
	out := make([]*core.PerfectSubgraph, 0, len(matched)+len(fresh))
	f := 0
	for _, ps := range matched {
		for f < len(fresh) && fresh[f].Center < ps.Center {
			out = append(out, fresh[f])
			f++
		}
		if !dirty.Contains(ps.Center) { // else stale: fresh holds its successor, if it has one
			out = append(out, ps)
		}
	}
	return append(out, fresh[f:]...)
}

// assemble folds the matching centers' outcomes into a canonical result — the
// same dedup rule (ascending centers, first admission wins) and ordering as
// engine.Match, so assembled results are byte-identical to a from-scratch
// Match on the same graph. Stats are not maintained incrementally and
// stay zero.
func assemble(matched []*core.PerfectSubgraph) *core.Result {
	res := &core.Result{}
	var discard core.Stats // per-run work counters are not maintained
	res.Subgraphs = core.DedupSubgraphs(matched, &discard)
	core.SortSubgraphs(res.Subgraphs)
	return res
}

// diffResults returns the subgraphs present only in next (added) and only
// in prev (removed), in canonical order. Each subgraph's signature is
// encoded exactly once.
func diffResults(prev, next *core.Result) (added, removed []*core.PerfectSubgraph) {
	prevSig := make([]string, prev.Len())
	prevSet := make(map[string]bool, prev.Len())
	for i, ps := range prev.Subgraphs {
		prevSig[i] = ps.Signature()
		prevSet[prevSig[i]] = true
	}
	nextSet := make(map[string]bool, next.Len())
	for _, ps := range next.Subgraphs {
		sig := ps.Signature()
		nextSet[sig] = true
		if !prevSet[sig] {
			added = append(added, ps)
		}
	}
	for i, ps := range prev.Subgraphs {
		if !nextSet[prevSig[i]] {
			removed = append(removed, ps)
		}
	}
	return added, removed
}
