// Package shard is the scatter/gather serving tier over the /v1 protocol:
// the router (router.go) — the api.Backend that fans matches out to a fleet
// of plain strongsimd replicas and merges their results byte-identically to
// a single-node server, served through package api's one /v1 route tree —
// the push that brings an empty replica to a copy of the graph as ordinary
// /v1/update batches (push.go), and the Section 4.3 partition plan
// (plan.go), which the served tier no longer uses.
//
// The fleet splits work, not data. Every replica holds the whole graph and
// advances on every update batch, which the router forwards verbatim after
// applying it to its authoritative store. Strong simulation evaluates one
// ball Ĝ[v, dQ] per candidate center v (the paper's locality result,
// Section 4.3), so the candidate centers partition cleanly: shard i of k
// evaluates only the centers v with v mod k = i, deduplicating its matches
// in center order, and the router deduplicates the union in center order
// again. The smallest producer of each subgraph survives both — its own
// slice's deduplication, because it is smallest there too, and then the
// router's — so the merged answer, statistics included, is the single
// node's at any radius. A limit goes to every shard and is cut again in
// center order, which keeps the single node's matches; its statistics then
// count the work each deployment did.
package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
)

// Config configures a Router.
type Config struct {
	// Plan, when set, must have K equal to len(Shards); nothing else is read
	// from it.
	//
	// Deprecated: replicas hold the whole graph and split the centers; kept
	// only because bench/ sets it.
	Plan *Plan
	// Shards lists, per shard index, the base URLs of that shard's
	// replicas, tried in order. Every shard needs at least one replica.
	// Shard i evaluates the candidate centers v with v mod len(Shards) = i.
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
// version the router expects, so its results can no longer be trusted. Recovery means
// wiping and re-pushing the shard, which is an operator action.
func (rep *replica) markStale(note string) {
	rep.mu.Lock()
	rep.stale, rep.note = true, note
	rep.mu.Unlock()
}

// Router is the scatter/gather tier: the api.Backend that evaluates /v1
// requests over a fleet of plain strongsimd shards, each a full replica of
// the graph. It owns the authoritative graph in a live.Store — updates apply
// there first (which also maintains standing queries with exact single-node
// semantics) and are then forwarded verbatim to every replica — while
// matches fan out to every shard, each evaluating its slice of the candidate
// centers, and merge byte-identically to a single-node server over the same
// graph. The HTTP contract itself is api's: Handler is api's one route tree
// with the router behind it.
type Router struct {
	store   *live.Store
	cfg     Config
	handler http.Handler

	shards  [][]*replica
	metrics []*shardMetrics

	// want is the version every replica should be at: the batches pushed
	// plus the update batches forwarded.
	want atomic.Uint64

	// upMu serializes updates (store apply + fan-out) and the probe loop, so
	// probes never read a shard mid-batch and conclude version skew.
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
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	if cfg.Plan != nil && len(cfg.Shards) != cfg.Plan.K {
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
	r := &Router{store: store, cfg: cfg}
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

// Push brings every (empty) shard replica to a copy of the store's current
// graph, sending each the same batches. It fails fast on a replica that is
// unreachable, not empty, or rejects a batch — a half-pushed fleet must not
// serve.
func (r *Router) Push(ctx context.Context) error {
	batches := InitialBatches(r.store.Current().Graph(), r.cfg.PushChunk)
	r.want.Store(uint64(len(batches)))
	nrep := 0
	for _, reps := range r.shards {
		nrep += len(reps)
	}
	var wg sync.WaitGroup
	errs := make([]error, nrep) // one slot per replica: goroutines never share one
	i := 0
	for s, reps := range r.shards {
		for _, rep := range reps {
			wg.Add(1)
			go func(s, i int, rep *replica) {
				defer wg.Done()
				if err := r.pushReplica(ctx, rep, batches); err != nil {
					errs[i] = fmt.Errorf("shard %d replica %s: %w", s, rep.addr, err)
				}
			}(s, i, rep)
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
// replicas whose reported version diverges from the one the router expects
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
	want := r.want.Load()
	var wg sync.WaitGroup
	for _, reps := range r.shards {
		for _, rep := range reps {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				pctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
				defer cancel()
				h, err := rep.cl.Healthz(pctx)
				switch {
				case err != nil:
					rep.setHealthy(false, err.Error())
				case h.Version != want:
					rep.markStale(fmt.Sprintf("version %d, router expects %d", h.Version, want))
				default:
					rep.setHealthy(true, "")
				}
			}(rep)
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

// shardRequest strips a match request down to what shard s of k evaluates:
// the pattern, mode, radius and limit, over its slice of the candidate
// centers. The limit is exact to forward: each of the first N subgraphs by
// smallest producing center is among the first N of its producer's slice,
// and any other subgraph a slice returns carries a larger center than the
// N-th, so the router's center-ordered cut keeps the same N. Ranking stays
// router-side — a shard cannot cut to a global top-k without seeing the
// other shards' results. A sliced query never touches a shard's result
// cache, so no_plan has nothing left to switch off there.
func shardRequest(req *api.MatchRequest, s, k int) api.MatchRequest {
	return api.MatchRequest{
		Pattern:     req.Pattern,
		PatternText: req.PatternText,
		Query: api.QuerySpec{Mode: req.Query.Mode, Radius: req.Query.Radius, Limit: req.Query.Limit,
			Slice: &api.SliceJSON{Index: s, Of: k}},
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

// partialOrFail resolves a fan-out with failed shards: a PartialJSON marker
// when the request allows degraded results, the structured
// shard_unavailable error otherwise. Never a silently incomplete response.
// The missing nodes are those in the failed shards' slices of n nodes.
func (r *Router) partialOrFail(allow bool, n int, failed []int) (*api.PartialJSON, error) {
	if !allow {
		routerUnavailable.Inc()
		return nil, api.Errorf(http.StatusBadGateway, api.CodeShardUnavailable,
			"shards %v unavailable; retry, or set query.allow_partial for degraded results", failed)
	}
	k, missing := len(r.shards), 0
	for _, s := range failed {
		missing += (n - s + k - 1) / k // the ids v < n with v mod k = s
	}
	routerPartials.Inc()
	return &api.PartialJSON{FailedShards: failed, MissingNodes: missing}, nil
}

// gather is the scatter/gather step both match endpoints share: the one
// router-specific admission rule (only the router sets a center slice), the
// fan-out of each shard's sliced request, and the merge. It returns the
// merged subgraphs — in ascending center order, cut to the request's limit —
// and the response carrying their Stats and Partial marker. kind names the
// fan-out spans.
func (r *Router) gather(ctx context.Context, q *api.Query, kind string) ([]*core.PerfectSubgraph, api.MatchResponse, error) {
	spec := &q.Request.Query
	if spec.Slice != nil {
		return nil, api.MatchResponse{}, api.Errorf(http.StatusBadRequest, api.CodeInvalidQuery,
			"slice is set by the router on the requests it sends its shards, never by a client")
	}

	var root obs.Span // the request's root span parents the fan-out spans
	if q.Opts.Trace != nil {
		root = q.Opts.Trace.Root
	}
	k := len(r.shards)
	resps := make([]*api.MatchResponse, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for s := range r.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sreq := shardRequest(&q.Request, s, k)
			errs[s] = r.callShard(ctx, s, kind, root,
				func(cctx context.Context, cl *client.Client) error {
					resp, err := cl.Match(cctx, sreq)
					for i := 0; err == nil && i < len(resp.Matches); i++ {
						if n := len(resp.Matches[i].Rel); n != q.Pattern.NumNodes() {
							err = fmt.Errorf("a match's rel has %d pattern nodes, the pattern %d", n, q.Pattern.NumNodes())
						}
					}
					if err == nil {
						resps[s] = resp
					}
					return err
				})
		}(s)
	}
	wg.Wait()

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
		n := q.Engine.Snapshot().Graph().NumNodes()
		if resp.Partial, err = r.partialOrFail(spec.AllowPartial, n, failed); err != nil {
			return nil, resp, err
		}
	}
	subs, stats := mergeOwned(resps, k, spec.Limit)
	resp.Stats = api.FromStats(stats)
	return subs, resp, nil
}

// Match implements api.Backend: the merged fan-out result, canonically
// ordered, or ranked router-side when the request asks for top_k (a shard
// cannot cut to a global top-k without seeing the other shards' results).
func (r *Router) Match(ctx context.Context, q *api.Query) (api.MatchResponse, error) {
	subs, resp, err := r.gather(ctx, q, "match")
	if err != nil {
		return resp, err
	}
	if k := q.Request.Query.TopK; k > 0 {
		merged := &core.Result{Subgraphs: subs}
		resp.Matches = api.FromRanked(merged.TopK(q.Pattern, q.Engine.Snapshot().Graph(), k, q.Metric))
	} else {
		core.SortSubgraphs(subs)
		resp.Matches = api.FromSubgraphs(subs)
	}
	return resp, nil
}

// Stream implements api.Backend: the merged fan-out result in ascending
// center order, the order a single node streams in. The router gathers
// complete per-shard /v1/match answers before the first line, so total
// shard failure still surfaces as a clean pre-commit 502.
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

// mergeOwned implements the scatter/gather merge rule over k center slices:
// keep from shard s exactly the subgraphs whose center lies in its slice
// (center mod k = s) and admit them in ascending center order through the
// engine's deduper, so cross-slice duplicates collapse onto the smallest
// producing center, exactly as a single node admits them, stopping after
// limit admissions when limit is positive. The result stays in center
// order. The slices partition the centers, so without a limit the work
// counters sum to the single node's; every shard filters the same graph, so
// balls_skipped is any answering shard's. Router-side duplicate discards add
// to the shards' own. A nil response is a shard that did not answer
// (client.Match returns none beside an error).
func mergeOwned(resps []*api.MatchResponse, k, limit int) ([]*core.PerfectSubgraph, core.Stats) {
	var stats core.Stats
	var owned []*core.PerfectSubgraph
	for s, resp := range resps {
		if resp == nil {
			continue
		}
		stats.BallsExamined += resp.Stats.BallsExamined
		stats.PairsRemoved += resp.Stats.PairsRemoved
		stats.Duplicates += resp.Stats.Duplicates
		stats.BallsSkipped = resp.Stats.BallsSkipped
		stats.MinimizedFrom = resp.Stats.MinimizedFrom
		for i := range resp.Matches {
			sj := &resp.Matches[i]
			if int(sj.Center)%k != s {
				continue
			}
			owned = append(owned, &core.PerfectSubgraph{Center: sj.Center, Nodes: sj.Nodes, Edges: sj.Edges, Rel: sj.Rel})
		}
	}
	sort.Slice(owned, func(i, j int) bool { return owned[i].Center < owned[j].Center })
	dedup := core.NewDeduper()
	subs := owned[:0]
	for _, ps := range owned {
		if limit > 0 && len(subs) == limit {
			break
		}
		if dedup.Admit(ps, &stats) {
			subs = append(subs, ps)
		}
	}
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
// forward the same mutations to every replica. The store's verdict on the
// batch is the single node's, and the replicas, holding the same graph,
// apply what it accepted.
func (r *Router) Update(ctx context.Context, muts []live.Mutation, root obs.Span) (api.UpdateResponse, error) {
	// One update at a time end to end: apply to the authoritative store
	// (which brings every standing query current, exactly as a single
	// node), then fan the batch out. Replicas of a healthy fleet advance in
	// lockstep with the router's expected version.
	r.upMu.Lock()
	defer r.upMu.Unlock()

	res, err := r.store.ApplyTraced(muts, root)
	if err != nil {
		return api.UpdateResponse{}, err
	}
	batch := make([]api.MutationJSON, len(muts))
	for i, m := range muts {
		batch[i] = api.FromMutation(m)
	}
	want := r.want.Add(1)

	// The batch is already in the authoritative store, so the shard fan-out
	// must run to completion no matter what the caller does: a client that
	// disconnects or times out mid-fan-out must not cancel the deliveries
	// and eject every replica. Per-call ShardTimeout is the bound.
	ctx = context.WithoutCancel(ctx)
	versions := make(map[int]uint64, len(r.shards))
	var wg sync.WaitGroup
	for s, reps := range r.shards {
		versions[s] = want
		// Every replica must apply the batch, so it is attempted even on
		// replicas a probe currently holds out as unreachable — a delivery
		// that lands readmits them. One that provably misses the batch is
		// stale for good (it can no longer serve consistent results) and
		// the probe loop will not readmit it.
		for ri, rep := range reps {
			if rep.isStale() {
				continue
			}
			wg.Add(1)
			go func(s, ri int, rep *replica) {
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
			}(s, ri, rep)
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
	want := r.want.Load()
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
			Version:  want,
		})
	}
}
