package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
)

// Config configures a Router.
type Config struct {
	// Plan is the partition plan; it must cover the store's initial graph.
	// The router owns it afterwards (ExtendTo runs on every update).
	Plan *Plan
	// Shards lists, per shard index, the base URLs of that shard's
	// replicas, tried in order. len(Shards) must equal Plan.K and every
	// shard needs at least one replica.
	Shards [][]string
	// ShardTimeout bounds each fan-out request to one replica (default 10s).
	ShardTimeout time.Duration
	// Retry is the per-replica retry policy of the fan-out clients; the
	// zero value retries twice with the client defaults.
	Retry client.RetryPolicy
	// PushChunk caps the mutations per initial-push batch (default 25000).
	PushChunk int
	// ProbeInterval paces the health-probe loop started by StartProbes
	// (default 5s).
	ProbeInterval time.Duration
	// HTTPClient, when set, underlies every fan-out client (tests inject
	// httptest transports).
	HTTPClient *http.Client
	// API configures the /v1 route tree the router serves through
	// (timeouts, body cap, access log, debug surface). Role is forced to
	// RoleRouter.
	API api.Config
}

// replica is one fan-out target: a member of one shard's replica set.
type replica struct {
	addr string
	cl   *client.Client // retrying client for idempotent calls (match, healthz)
	upCl *client.Client // no-retry client for /v1/update: a replayed batch double-applies

	mu      sync.Mutex
	healthy bool // reachable per the last probe or request
	stale   bool // version skew: missed or double-applied a batch; terminal
	note    string
}

func (rep *replica) available() bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.healthy && !rep.stale
}

func (rep *replica) isStale() bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.stale
}

func (rep *replica) setHealthy(ok bool, note string) {
	rep.mu.Lock()
	rep.healthy, rep.note = ok, note
	rep.mu.Unlock()
}

// markStale ejects the replica permanently: its version diverged from the
// router's vector, so its results can no longer be trusted. Recovery means
// wiping and re-pushing the shard, which is an operator action.
func (rep *replica) markStale(note string) {
	rep.mu.Lock()
	rep.stale, rep.note = true, note
	rep.mu.Unlock()
}

// Router is the scatter/gather tier: the api.Backend that evaluates /v1
// requests over a fleet of plain strongsimd shards. It owns the
// authoritative global graph in a live.Store — updates apply there first
// (which also maintains standing queries with exact single-node semantics)
// and then fan out to the shards as diff batches — while matches fan out to
// every shard and merge per-center results byte-identically to a
// single-node server over the same graph. The HTTP contract itself is
// api's: Handler is api's one route tree with the router behind it.
type Router struct {
	store   *live.Store
	plan    *Plan
	cfg     Config
	handler http.Handler

	shards  [][]*replica
	metrics []*shardMetrics

	// mu guards the routing state match requests snapshot: the ownership
	// array, the per-shard member bitmaps, and the version vector.
	mu      sync.RWMutex
	owner   []int32
	members [][]bool
	want    []uint64

	// upMu serializes updates (store apply + member recompute + fan-out)
	// and the probe loop, so probes never read a shard mid-batch and
	// conclude version skew.
	upMu sync.Mutex

	probeStop chan struct{}
	probeDone chan struct{}
}

type shardMetrics struct {
	latency   *obs.Histogram // fan-out request latency against this shard
	failovers *obs.Counter   // replica attempts that failed and moved on
	lost      *obs.Counter   // fan-outs where every replica failed
}

var (
	routerPartials = obs.Default.Counter("router_partial_responses_total",
		"degraded scatter/gather responses served with a partial marker")
	routerUnavailable = obs.Default.Counter("router_unavailable_total",
		"requests failed with shard_unavailable")
)

// NewRouter builds a router over an authoritative store and a shard fleet.
// The shards are assumed empty; call Push before serving.
func NewRouter(store *live.Store, cfg Config) (*Router, error) {
	g := store.Current().Graph()
	if cfg.Plan == nil {
		return nil, fmt.Errorf("shard: router needs a plan")
	}
	if err := cfg.Plan.Validate(g.NumNodes()); err != nil {
		return nil, err
	}
	if len(cfg.Shards) != cfg.Plan.K {
		return nil, fmt.Errorf("shard: plan has %d shards, config lists %d replica sets",
			cfg.Plan.K, len(cfg.Shards))
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 10 * time.Second
	}
	if cfg.PushChunk == 0 {
		cfg.PushChunk = 25000
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 5 * time.Second
	}
	if cfg.Retry.MaxAttempts < 2 {
		cfg.Retry = client.RetryPolicy{MaxAttempts: 3}
	}
	r := &Router{
		store:   store,
		plan:    cfg.Plan,
		cfg:     cfg,
		owner:   cfg.Plan.Owner,
		members: cfg.Plan.Members(g),
		want:    make([]uint64, cfg.Plan.K),
	}
	for s, addrs := range cfg.Shards {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("shard: shard %d has no replicas", s)
		}
		reps := make([]*replica, 0, len(addrs))
		for _, addr := range addrs {
			opts := []client.Option{client.WithRetryPolicy(cfg.Retry)}
			var upOpts []client.Option // no retry policy: update batches are not idempotent
			if cfg.HTTPClient != nil {
				opts = append(opts, client.WithHTTPClient(cfg.HTTPClient))
				upOpts = append(upOpts, client.WithHTTPClient(cfg.HTTPClient))
			}
			reps = append(reps, &replica{
				addr:    addr,
				cl:      client.New(addr, opts...),
				upCl:    client.New(addr, upOpts...),
				healthy: true,
			})
		}
		r.shards = append(r.shards, reps)
		si := strconv.Itoa(s)
		r.metrics = append(r.metrics, &shardMetrics{
			latency: obs.Default.Histogram("router_shard_seconds",
				"fan-out request latency by shard", obs.DefBuckets(), "shard", si),
			failovers: obs.Default.Counter("router_shard_failovers_total",
				"replica attempts that failed and fell over to the next replica", "shard", si),
			lost: obs.Default.Counter("router_shard_lost_total",
				"fan-outs for which every replica of the shard failed", "shard", si),
		})
	}
	cfg.API.Role = api.RoleRouter
	r.handler = api.NewFleetServer(store, r, cfg.API)
	return r, nil
}

// Push brings every (empty) shard replica to its halo-extended subgraph of
// the store's current graph. It fails fast on a replica that is
// unreachable, not empty, or rejects a batch — a half-pushed fleet must not
// serve.
func (r *Router) Push(ctx context.Context) error {
	g := r.store.Current().Graph()
	r.mu.RLock()
	members := r.members
	r.mu.RUnlock()

	nrep := 0
	for _, reps := range r.shards {
		nrep += len(reps)
	}
	var wg sync.WaitGroup
	errs := make([]error, nrep) // one slot per replica: goroutines never share one
	i := 0
	for s, reps := range r.shards {
		batches := InitialBatches(g, members[s], r.cfg.PushChunk)
		r.mu.Lock()
		r.want[s] = uint64(len(batches))
		r.mu.Unlock()
		for _, rep := range reps {
			wg.Add(1)
			go func(s, i int, rep *replica, batches [][]api.MutationJSON) {
				defer wg.Done()
				if err := r.pushReplica(ctx, rep, batches); err != nil {
					errs[i] = fmt.Errorf("shard %d replica %s: %w", s, rep.addr, err)
				}
			}(s, i, rep, batches)
			i++
		}
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *Router) pushReplica(ctx context.Context, rep *replica, batches [][]api.MutationJSON) error {
	hctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
	h, err := rep.cl.Healthz(hctx)
	cancel()
	if err != nil {
		return fmt.Errorf("probing: %w", err)
	}
	if h.Nodes != 0 || h.Version != 0 {
		return fmt.Errorf("not empty (%d nodes at version %d); shards must start fresh", h.Nodes, h.Version)
	}
	for i, batch := range batches {
		bctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
		res, err := rep.upCl.Update(bctx, batch...)
		cancel()
		if err != nil {
			return fmt.Errorf("push batch %d/%d: %w", i+1, len(batches), err)
		}
		if res.Version != uint64(i+1) {
			return fmt.Errorf("push batch %d/%d: replica at version %d, want %d",
				i+1, len(batches), res.Version, i+1)
		}
	}
	return nil
}

// StartProbes runs the periodic health-probe loop until Close (or ctx
// cancellation): every replica is probed over /v1/healthz, unreachable
// replicas are ejected from fan-outs until a later probe readmits them, and
// replicas whose reported version diverges from the router's version vector
// are ejected permanently as stale.
func (r *Router) StartProbes(ctx context.Context) {
	r.probeStop = make(chan struct{})
	r.probeDone = make(chan struct{})
	go func() {
		defer close(r.probeDone)
		t := time.NewTicker(r.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-r.probeStop:
				return
			case <-t.C:
				r.probeOnce(ctx)
			}
		}
	}()
}

// Close stops the probe loop (if started).
func (r *Router) Close() {
	if r.probeStop != nil {
		close(r.probeStop)
		<-r.probeDone
		r.probeStop = nil
	}
}

// probeOnce probes every replica once. It serializes against updates so a
// shard is never read between the router's version bump and the batch
// landing.
func (r *Router) probeOnce(ctx context.Context) {
	r.upMu.Lock()
	defer r.upMu.Unlock()
	r.mu.RLock()
	want := append([]uint64(nil), r.want...)
	r.mu.RUnlock()
	var wg sync.WaitGroup
	for s, reps := range r.shards {
		for _, rep := range reps {
			wg.Add(1)
			go func(s int, rep *replica) {
				defer wg.Done()
				pctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
				defer cancel()
				h, err := rep.cl.Healthz(pctx)
				switch {
				case err != nil:
					rep.setHealthy(false, err.Error())
				case h.Version != want[s]:
					rep.markStale(fmt.Sprintf("version %d, router expects %d", h.Version, want[s]))
				default:
					rep.setHealthy(true, "")
				}
			}(s, rep)
		}
	}
	wg.Wait()
}

// Handler returns the /v1 route tree of package api — the same routes,
// validation, middleware and debug surface a single node serves — with the
// router as its Backend: match, match/stream and update fan out, healthz
// adds the fleet summary, and every other route is answered from the
// authoritative store with ordinary single-node semantics.
func (r *Router) Handler() http.Handler { return r.handler }

// shardRequest strips a match request down to what shards evaluate: the
// pattern, mode, radius and planner opt-out (each shard filters and caches
// against its own slice). Ranking, limits and statistics are router-side
// concerns — a shard cannot cut to a global top-k or limit without seeing
// the other shards' results.
func shardRequest(req *api.MatchRequest) api.MatchRequest {
	return api.MatchRequest{
		Pattern:     req.Pattern,
		PatternText: req.PatternText,
		Query: api.QuerySpec{Mode: req.Query.Mode, Radius: req.Query.Radius,
			NoPlan: req.Query.NoPlan},
	}
}

// callShard runs one fan-out call against shard s, trying replicas in
// order: a transport failure or 5xx (already retried by the client policy)
// marks the replica unreachable and falls over to the next; a 4xx is a
// request-level verdict every replica would repeat and is returned
// immediately. The error is nil on success, the 4xx *api.Error, or a
// shard-unavailable sentinel when every replica failed.
func (r *Router) callShard(ctx context.Context, s int, kind string, root obs.Span,
	do func(ctx context.Context, cl *client.Client) error) error {
	var lastErr error
	tried := 0
	for ri, rep := range r.shards[s] {
		if !rep.available() {
			continue
		}
		if tried > 0 {
			r.metrics[s].failovers.Inc()
		}
		tried++
		sp := root.StartChild("shard." + kind)
		cctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
		if sp.Recording() {
			cctx = client.WithTraceContext(cctx, sp.Context().String())
		}
		start := time.Now()
		err := do(cctx, rep.cl)
		cancel()
		r.metrics[s].latency.Observe(time.Since(start).Seconds())
		if err == nil {
			if sp.Recording() {
				sp.End(obs.Attr{Key: "shard", Value: int64(s)},
					obs.Attr{Key: "replica", Value: int64(ri)})
			}
			return nil
		}
		if sp.Recording() {
			sp.EndStatus("error", obs.Attr{Key: "shard", Value: int64(s)},
				obs.Attr{Key: "replica", Value: int64(ri)})
		}
		var aerr *api.Error
		if errors.As(err, &aerr) && aerr.Status >= 400 && aerr.Status < 500 {
			return err // the request is wrong, not the replica
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller's own deadline expired or it disconnected; the
			// failure says nothing about the replica, and the remaining
			// replicas would fail identically. Keep everyone admitted.
			break
		}
		rep.setHealthy(false, err.Error())
	}
	r.metrics[s].lost.Inc()
	if lastErr == nil {
		lastErr = fmt.Errorf("no replica available")
	}
	return fmt.Errorf("shard %d unavailable: %w", s, lastErr)
}

// toPerfect converts a wire subgraph back to the engine's form so the
// router can reuse the engine's dedup, ordering and ranking primitives.
func toPerfect(sj *api.SubgraphJSON) *core.PerfectSubgraph {
	rel := make(map[int32][]int32, len(sj.Rel))
	for k, v := range sj.Rel {
		u, err := strconv.Atoi(k)
		if err != nil {
			continue // a shard never emits non-numeric keys
		}
		rel[int32(u)] = v
	}
	return &core.PerfectSubgraph{Center: sj.Center, Nodes: sj.Nodes, Edges: sj.Edges, Rel: rel}
}

// partialOrFail resolves a fan-out with failed shards: a PartialJSON marker
// when the request allows degraded results, the structured
// shard_unavailable error otherwise. Never a silently incomplete response.
func partialOrFail(allow bool, owner []int32, failed []int) (*api.PartialJSON, error) {
	if !allow {
		routerUnavailable.Inc()
		return nil, api.Errorf(http.StatusBadGateway, api.CodeShardUnavailable,
			"shards %v unavailable; retry, or set query.allow_partial for degraded results", failed)
	}
	missing := 0
	failedSet := make(map[int]bool, len(failed))
	for _, s := range failed {
		failedSet[s] = true
	}
	for _, s := range owner {
		if failedSet[int(s)] {
			missing++
		}
	}
	routerPartials.Inc()
	return &api.PartialJSON{FailedShards: failed, MissingNodes: missing}, nil
}

// gather is the scatter/gather step both match endpoints share: the one
// router-specific admission rule (the effective ball radius must fit inside
// the halo), the fan-out of the stripped request to every shard, and the
// ownership merge. It returns the merged subgraphs — canonically ordered and
// cut to the request's limit — and the response carrying their Stats and
// Partial marker. kind names the fan-out spans.
func (r *Router) gather(ctx context.Context, q *api.Query, kind string) ([]*core.PerfectSubgraph, api.MatchResponse, error) {
	spec := &q.Request.Query
	eff := spec.Radius
	if eff == 0 {
		eff = q.Diameter
	}
	if eff > r.plan.Halo {
		return nil, api.MatchResponse{}, api.Errorf(http.StatusBadRequest, api.CodeHaloExceeded,
			"effective ball radius %d exceeds the halo replication depth %d: "+
				"lower the radius or redeploy with a deeper halo", eff, r.plan.Halo)
	}

	sreq := shardRequest(&q.Request)
	var root obs.Span // the request's root span parents the fan-out spans
	if q.Opts.Trace != nil {
		root = q.Opts.Trace.Root
	}
	resps := make([]*api.MatchResponse, len(r.shards))
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for s := range r.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = r.callShard(ctx, s, kind, root,
				func(cctx context.Context, cl *client.Client) (err error) {
					resps[s], err = cl.Match(cctx, sreq)
					return err
				})
		}(s)
	}
	wg.Wait()

	r.mu.RLock()
	owner := r.owner
	r.mu.RUnlock()

	var failed []int
	for s, err := range errs {
		if err == nil {
			continue
		}
		var aerr *api.Error
		if errors.As(err, &aerr) && aerr.Status >= 400 && aerr.Status < 500 {
			return nil, api.MatchResponse{}, aerr // a request-level rejection; every shard agrees
		}
		failed = append(failed, s)
	}
	var resp api.MatchResponse
	if len(failed) > 0 {
		// The caller's own deadline or cancellation is no verdict on the
		// shards: report it as such, not as shard_unavailable or a partial.
		if err := ctx.Err(); err != nil {
			return nil, resp, err
		}
		var err error
		if resp.Partial, err = partialOrFail(spec.AllowPartial, owner, failed); err != nil {
			return nil, resp, err
		}
	}
	subs, stats := mergeOwned(resps, owner)
	if spec.TopK == 0 && spec.Limit > 0 && len(subs) > spec.Limit {
		subs = subs[:spec.Limit]
	}
	resp.Stats = api.FromStats(stats)
	return subs, resp, nil
}

// Match implements api.Backend: the merged fan-out result, ranked
// router-side when the request asks for top_k (a shard cannot cut to a
// global top-k without seeing the other shards' results).
func (r *Router) Match(ctx context.Context, q *api.Query) (api.MatchResponse, error) {
	subs, resp, err := r.gather(ctx, q, "match")
	if err != nil {
		return resp, err
	}
	if k := q.Request.Query.TopK; k > 0 {
		merged := &core.Result{Subgraphs: subs}
		resp.Matches = api.FromRanked(merged.TopK(q.Pattern, q.Engine.Snapshot().Graph(), k, q.Metric))
	} else {
		resp.Matches = api.FromSubgraphs(subs)
	}
	return resp, nil
}

// Stream implements api.Backend. Unlike a single node — which streams
// matches as workers finish balls, deduping first-wins — the router must
// gather complete per-shard result sets before it can apply the ownership
// merge. A subgraph survives the merge only as reported by the shard that
// owns its smallest producing center, so shards answer /v1/match, which
// deduplicates in center order; a shard-side stream deduplicates in
// arrival order and could leave the subgraph under a center its shard does
// not own, to be dropped. The members' second halo makes the center-order
// deduplication exact: every center within halo of an owned one has its
// whole ball on the shard (Plan.Members). Buffered fan-out keeps the stream
// byte-equal (as a set) to /v1/match, and lets total shard failure surface
// as a clean pre-commit 502.
func (r *Router) Stream(ctx context.Context, q *api.Query, emit func(*core.PerfectSubgraph) bool) (api.MatchResponse, error) {
	subs, resp, err := r.gather(ctx, q, "stream")
	if err != nil {
		return resp, err
	}
	for _, ps := range subs {
		if !emit(ps) {
			break // client went away
		}
	}
	return resp, nil
}

// mergeOwned implements the scatter/gather merge rule: keep from shard s
// exactly the subgraphs whose center s owns (each center is reported once,
// by the shard whose ball for it equals the global ball), admit them in
// ascending center order through the engine's deduper (so cross-center
// duplicate subgraphs collapse onto the smallest producing center, exactly
// as a single node admits them), and order canonically. Shard statistics
// are summed — they count halo-center work a single node would not do — and
// router-side duplicate discards are added on top. A nil response is a
// shard that did not answer (client.Match returns none beside an error).
func mergeOwned(resps []*api.MatchResponse, owner []int32) ([]*core.PerfectSubgraph, core.Stats) {
	var stats core.Stats
	var owned []*core.PerfectSubgraph
	for s, resp := range resps {
		if resp == nil {
			continue
		}
		stats.BallsExamined += resp.Stats.BallsExamined
		stats.BallsSkipped += resp.Stats.BallsSkipped
		stats.PairsRemoved += resp.Stats.PairsRemoved
		stats.Duplicates += resp.Stats.Duplicates
		if resp.Stats.MinimizedFrom > stats.MinimizedFrom {
			stats.MinimizedFrom = resp.Stats.MinimizedFrom
		}
		for i := range resp.Matches {
			sj := &resp.Matches[i]
			if int(sj.Center) >= len(owner) || int(owner[sj.Center]) != s {
				continue
			}
			owned = append(owned, toPerfect(sj))
		}
	}
	sort.Slice(owned, func(i, j int) bool { return owned[i].Center < owned[j].Center })
	dedup := core.NewDeduper()
	subs := owned[:0]
	for _, ps := range owned {
		if dedup.Admit(ps, &stats) {
			subs = append(subs, ps)
		}
	}
	core.SortSubgraphs(subs)
	return subs, stats
}

// verifyVersion asks a replica directly, after a failed update delivery,
// whether the batch nevertheless landed. It runs on a fresh context: the
// verdict must not depend on whatever killed the delivery.
func (r *Router) verifyVersion(rep *replica, want uint64) bool {
	vctx, cancel := context.WithTimeout(context.Background(), r.cfg.ShardTimeout)
	defer cancel()
	h, err := rep.cl.Healthz(vctx)
	return err == nil && h.Version == want
}

// Update implements api.Backend: apply to the authoritative store, then
// deliver each shard its diff batch under the version vector. On top of the
// single-node validation api already ran, the router rejects labels
// containing NUL: live.TombstoneLabel and FillerLabel are internal markers,
// and a client-set FillerLabel would make a real member node
// indistinguishable from halo filler on the shards.
func (r *Router) Update(ctx context.Context, muts []live.Mutation, root obs.Span) (api.UpdateResponse, error) {
	for i, m := range muts {
		if strings.IndexByte(m.Label, 0) >= 0 {
			return api.UpdateResponse{}, api.Errorf(http.StatusBadRequest, api.CodeInvalidMutation,
				"updates[%d]: %s label contains NUL; reserved for internal markers", i, m.Op)
		}
	}

	// One update at a time end to end: apply to the authoritative store
	// (which brings every standing query current, exactly as a single
	// node), recompute the halo member sets, then fan the per-shard diffs
	// out. Shards of a healthy fleet advance in lockstep with the router's
	// version vector.
	r.upMu.Lock()
	defer r.upMu.Unlock()

	oldG := r.store.Current().Graph()
	res, err := r.store.ApplyTraced(muts, root)
	if err != nil {
		return api.UpdateResponse{}, err
	}
	newG := r.store.Current().Graph()
	r.plan.ExtendTo(newG.NumNodes())
	newMembers := r.plan.Members(newG)

	r.mu.Lock()
	oldMembers := r.members
	r.members = newMembers
	r.owner = r.plan.Owner
	r.mu.Unlock()

	// The batch is already in the authoritative store, so the shard fan-out
	// must run to completion no matter what the caller does: a client that
	// disconnects or times out mid-fan-out must not cancel the deliveries
	// and eject every touched replica. Per-call ShardTimeout is the bound.
	ctx = context.WithoutCancel(ctx)
	versions := make(map[int]uint64, len(r.shards))
	var wg sync.WaitGroup
	for s := range r.shards {
		batch := DiffBatch(oldG, newG, oldMembers[s], newMembers[s])
		if len(batch) == 0 {
			r.mu.RLock()
			versions[s] = r.want[s]
			r.mu.RUnlock()
			continue // the batch did not touch this shard's subgraph
		}
		r.mu.Lock()
		r.want[s]++
		want := r.want[s]
		r.mu.Unlock()
		versions[s] = want
		// Every replica must apply the batch, so it is attempted even on
		// replicas a probe currently holds out as unreachable — a delivery
		// that lands readmits them. One that provably misses the batch is
		// stale for good (it can no longer serve consistent results) and
		// the probe loop will not readmit it.
		for ri, rep := range r.shards[s] {
			if rep.isStale() {
				continue
			}
			wg.Add(1)
			go func(s, ri int, rep *replica, batch []api.MutationJSON, want uint64) {
				defer wg.Done()
				sp := root.StartChild("shard.update")
				cctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
				defer cancel()
				if sp.Recording() {
					cctx = client.WithTraceContext(cctx, sp.Context().String())
				}
				ures, err := rep.upCl.Update(cctx, batch...)
				switch {
				case err == nil && ures.Version == want:
					rep.setHealthy(true, "")
				case err == nil:
					rep.markStale(fmt.Sprintf("version %d after batch, router expects %d", ures.Version, want))
				default:
					// A failed call does not say whether the shard applied
					// the batch (the connection may have dropped after the
					// apply); believe the replica's own version, not the
					// transport.
					if r.verifyVersion(rep, want) {
						rep.setHealthy(true, "")
						err = nil
					} else {
						rep.markStale(fmt.Sprintf("update batch failed: %v", err))
					}
				}
				if sp.Recording() {
					status := ""
					if err != nil {
						status = "error"
					}
					sp.EndStatus(status,
						obs.Attr{Key: "shard", Value: int64(s)},
						obs.Attr{Key: "replica", Value: int64(ri)},
						obs.Attr{Key: "mutations", Value: int64(len(batch))})
				}
			}(s, ri, rep, batch, want)
		}
	}
	wg.Wait()

	return api.UpdateResponse{
		Version:       res.Version,
		Nodes:         res.Nodes,
		Edges:         res.Edges,
		AddedNodes:    res.AddedNodes,
		Recomputed:    res.Recomputed,
		ShardVersions: versions,
	}, nil
}

// Health implements api.Backend: the per-shard serving summary, and a
// degraded status when some shard has no serving replica.
func (r *Router) Health(h *api.HealthJSON) {
	r.mu.RLock()
	want := append([]uint64(nil), r.want...)
	r.mu.RUnlock()
	for s, reps := range r.shards {
		serving := 0
		for _, rep := range reps {
			if rep.available() {
				serving++
			}
		}
		if serving == 0 {
			h.Status = "degraded"
		}
		h.Shards = append(h.Shards, api.ShardHealthJSON{
			Shard:    s,
			Replicas: len(reps),
			Serving:  serving,
			Version:  want[s],
		})
	}
}
