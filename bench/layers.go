package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/simulation"
)

// budgetRow is one line of the latency budget: a layer's mean share of a
// sampled match request's wall time.
type budgetRow struct {
	Layer string  `json:"layer"`
	MS    float64 `json:"ms"`
	Share float64 `json:"share"`
}

// tracedRun produces the per-layer metrics. It has three parts:
//
//   - a short closed-loop phase like the timed run's, bracketed by scrapes of
//     /v1/metrics, for every ratio the server's own counters define (on
//     adhoc-plus followed by the same phase against a server with debug,
//     full trace sampling and per-query stats on: the cost of observability);
//   - the depth replay (type replay);
//   - stand-alone probes of single functions (probes).
func tracedRun(cfg config, w *workload, rep *report) error {
	set := func(name string, v float64, n int) { rep.set(perLayer, name, v, n) }
	for _, s := range perLayer {
		set(s.Name, 0, 0)
	}
	set("bench.gen_s", w.genS, 1)

	clock := time.Now()
	r, err := setUp(w, api.Config{})
	if err != nil {
		return err
	}
	defer r.close()
	r.phase(cfg.warmup(), true)
	rep.lap("set_up_and_warm_up", &clock)
	res, ctr, err := r.measured(cfg.phase() / 6)
	if err != nil {
		return err
	}
	rep.lap("counter_phase", &clock)
	rep.Attempted, rep.Failed = res.attempted, res.failed
	set("plan.cache_hit_ratio", ctr.cacheHitRatio(), len(res.lat[opMatch]))
	for name, c := range map[string][2]string{
		"plan.candidate_reduction":      {"plan_candidates_pruned_total", "plan_candidates_before_total"},
		"graph.scratch_miss_ratio":      {"scratch_ball_misses_total", "scratch_ball_builds_total"},
		"simulation.scratch_miss_ratio": {"scratch_sim_misses_total", "scratch_sim_evals_total"},
		"plan.index_builds_per_update":  {"plan_index_builds_total", "live_update_batches_total"},
	} {
		set(name, ctr.ratio(c[0], c[1]), int(ctr[c[1]]))
	}
	set("client.match_p99_ms", quantile(res.lat[opMatch], 0.99), len(res.lat[opMatch]))
	set("live.update_p50_ms", quantile(res.lat[opUpdate], 0.50), len(res.lat[opUpdate]))
	set("live.update_p90_ms", quantile(res.lat[opUpdate], 0.90), len(res.lat[opUpdate]))

	if w.spec.Obs {
		// Untraced and traced phases alternate, so that a slow spell of the
		// machine falls on both sides.
		ro, err := setUp(w, api.Config{EnableDebug: true, TraceSampleRate: 1})
		if err != nil {
			return err
		}
		ro.stats = true
		ro.phase(cfg.warmup(), true)
		var off, on phaseResult
		for i := 0; i < 4; i++ {
			for _, side := range []struct {
				r   *runner
				sum *phaseResult
			}{{r, &off}, {ro, &on}} {
				p := side.r.phase(cfg.phase()/30, false)
				side.sum.seconds += p.seconds
				side.sum.attempted += p.attempted
				side.sum.failed += p.failed
				rep.Attempted += p.attempted
				rep.Failed += p.failed
			}
		}
		ro.close()
		set("obs.trace_overhead_ratio", (float64(on.ok())/on.seconds)/(float64(off.ok())/off.seconds), on.ok())
		rep.lap("obs_phases", &clock)
	}

	t := &replay{w: w, rec: &recorder{t0: time.Now()}}
	if err := t.run(r); err != nil {
		return err
	}
	rep.lap("depth_replay", &clock)
	floor := clientFloor(r)
	set("client.floor_ms", floor, floorProbes)
	t.report(rep, set, floor)
	if w.spec.Sharded {
		set("shard.plan_build_ms", r.st.planMS, 1)
		set("shard.push_s", r.st.pushS, 1)
		members := 0
		for _, shard := range r.st.plan.Members(w.g) {
			for _, in := range shard {
				if in {
					members++
				}
			}
		}
		set("shard.halo_replication", float64(members)/float64(w.g.NumNodes()), 1)
	}
	probes(w, set)
	rep.lap("probes", &clock)
	return t.rec.write(cfg.outDir, w.spec.Name)
}

// replay is the depth replay: one client re-sends the workload's traced
// sample, in order, at every depth —
//
//	client.match ⊃ api.serve ⊃ {api.decode, engine.match, api.encode}
//	engine.match ⊃ {plan.canon, simulation.dual_global, plan.prune,
//	                Σ graph.ball_build, Σ core.ball_eval}
//	client.update ⊃ api.serve_update ⊃ live.apply
//
// — with a span around each call. Every depth has a store of its own over
// the shared immutable graph, brought to the state the timed run's server
// was in, and sees the whole sample in the same order, so a request that is
// cold (or a cache hit, or a refresh after an update) at one depth is the
// same at every depth. The depths take turns op by op, so that a slow spell
// of the machine falls on all of them and not on one.
type replay struct {
	w   *workload
	rec *recorder
	// Span index per sampled op at the client, handler and engine depths.
	root, serve, eng []int
	bodyBytes        []float64 // match response sizes seen at the handler depth
	single           []float64 // sharded-plus: the same request on one node, ms
	applySQ0         []float64 // live.apply without standing queries, ms
	outcome          []string  // plan-cache outcome per sampled match
	ballNodes        []float64
}

// depth is one depth's private state: its store and its copy of the
// sample's update batches.
type depth struct {
	st *live.Store
	ch churner
}

// newDepth returns a fresh store primed like setUp's. On repeat-churn the
// standing queries are registered (unless the depth is the one that measures
// live.apply without them) and every pool pattern has been asked once, as
// after the timed run's warm-up.
func (t *replay) newDepth(standing bool) (*depth, error) {
	st := live.NewStore(t.w.g, live.Config{})
	for i := 0; t.w.spec.Churn && standing && i < standingN; i++ {
		if _, err := st.Register(graph.FormatString(t.w.pattern(int32(i)))); err != nil {
			return nil, err
		}
	}
	warm := t.w.reqs[:primeOps]
	if t.w.spec.Churn {
		warm = t.w.reqs
	}
	for _, req := range warm {
		q, opts, err := decode(st, req)
		if err != nil {
			return nil, err
		}
		if _, err := st.Engine().Match(context.Background(), q, opts); err != nil {
			return nil, err
		}
	}
	return &depth{st, t.w.sampCh}, nil
}

// decode is what the handler does to a match request before it calls the
// engine: pattern to graph against a clone of the label table, query spec
// to options, the store's planner attached.
func decode(st *live.Store, req api.MatchRequest) (*graph.Graph, engine.QueryOptions, error) {
	q, err := req.Pattern.ToGraph(st.Engine().Snapshot().Graph().Labels().Clone())
	if err != nil {
		return nil, engine.QueryOptions{}, err
	}
	opts, _, err := req.Query.Compile()
	opts.Planner = st.Planner()
	return q, opts, err
}

func (t *replay) run(r *runner) error {
	n := len(t.w.sample)
	t.root, t.serve, t.eng = make([]int, n), make([]int, n), make([]int, n)
	t.outcome = make([]string, n)

	// The client depth goes through the SDK and a socket. An adhoc sample
	// was never sent to the counter phase's stack, which is therefore as
	// cold for it as any; a churn sample starts from the base graph and
	// needs a stack of its own, warmed like the other depths.
	front, frontCh := r, t.w.sampCh
	if t.w.spec.Churn {
		var err error
		if front, err = setUp(t.w, api.Config{}); err != nil {
			return err
		}
		defer front.close()
		for _, req := range t.w.reqs {
			if _, err := front.cls[0].Match(context.Background(), req); err != nil {
				return err
			}
		}
	}
	var solo *runner // sharded-plus: the same requests on one node
	if t.w.spec.Sharded {
		one := *t.w
		one.spec.Sharded = false
		var err error
		if solo, err = setUp(&one, api.Config{}); err != nil {
			return err
		}
		defer solo.close()
	}
	var depths [4]*depth // handler, engine, engine without standing queries, kernel
	for k := range depths {
		if k == 2 && !t.w.spec.Churn {
			continue
		}
		var err error
		if depths[k], err = t.newDepth(k != 2); err != nil {
			return err
		}
	}
	handler := api.NewLiveServer(depths[0].st, api.Config{})

	for i, o := range t.w.sample {
		start, end, err := t.clientOp(front, &frontCh, o)
		if err != nil {
			return fmt.Errorf("replaying op %d through the SDK: %w", i, err)
		}
		t.root[i] = t.rec.add("client."+opNames[o.Kind], i, start, end, -1)
		if solo != nil {
			if start, end, err = t.clientOp(solo, nil, o); err != nil {
				return fmt.Errorf("replaying op %d on one node: %w", i, err)
			}
			t.single = append(t.single, ms(time.Duration(end-start)))
		}
		if o.Kind == opPoll {
			continue // a poll changes nothing and is not broken down
		}
		if err := t.handlerOp(handler, depths[0], i, o); err != nil {
			return fmt.Errorf("replaying op %d into the handler: %w", i, err)
		}
		for _, d := range depths[1:3] {
			if d == nil {
				continue
			}
			if err := t.engineOp(d, i, o, d == depths[1]); err != nil {
				return fmt.Errorf("replaying op %d into the engine: %w", i, err)
			}
		}
		if err := t.kernelOp(depths[3], i, o); err != nil {
			return fmt.Errorf("replaying op %d into the kernel: %w", i, err)
		}
	}
	return nil
}

// clientOp sends one op through r's first SDK client and returns when it
// started and ended. Only repeat-churn samples hold updates and polls.
func (t *replay) clientOp(r *runner, ch *churner, o op) (start, end int64, err error) {
	ctx := context.Background()
	start = t.rec.now()
	switch o.Kind {
	case opMatch:
		_, err = r.cls[0].Match(ctx, t.w.reqs[o.Idx])
	case opUpdate:
		_, err = r.cls[0].Update(ctx, ch.mutations()...)
	default:
		_, err = r.cls[0].PollDelta(ctx, r.standing[o.Idx])
	}
	return start, t.rec.now(), err
}

// handlerOp calls the handler's ServeHTTP for one op, without a socket.
func (t *replay) handlerOp(h http.Handler, d *depth, i int, o op) error {
	name, path, body := "api.serve", "/match", []byte(nil)
	if o.Kind == opMatch {
		body = mustJSON(t.w.reqs[o.Idx])
	} else {
		name, path, body = "api.serve_update", "/update", mustJSON(api.UpdateRequest{Updates: d.ch.mutations()})
	}
	rw := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, api.Prefix+path, bytes.NewReader(body))
	t.serve[i] = t.rec.time(name, i, t.root[i], func() { h.ServeHTTP(rw, hreq) })
	if rw.Code != http.StatusOK {
		return fmt.Errorf("%d %s", rw.Code, rw.Body)
	}
	if o.Kind == opMatch {
		t.bodyBytes = append(t.bodyBytes, float64(rw.Body.Len()))
	}
	return nil
}

// engineOp makes the calls the handler makes for one op. Only the depth
// with standing queries records spans; the other's live.apply times, taken
// on the same sequence, differ from them by standing-query maintenance.
func (t *replay) engineOp(d *depth, i int, o op, record bool) error {
	if o.Kind == opUpdate {
		start := t.rec.now()
		if _, err := d.st.Apply(lower(d.ch.mutations())); err != nil {
			return err
		}
		if end := t.rec.now(); record {
			t.rec.add("live.apply", i, start, end, t.serve[i])
		} else {
			t.applySQ0 = append(t.applySQ0, ms(time.Duration(end-start)))
		}
		return nil
	}
	var q *graph.Graph
	var opts engine.QueryOptions
	var res *core.Result
	for _, step := range []struct {
		name string
		call func() error
	}{
		{"api.decode", func() (err error) { q, opts, err = decode(d.st, t.w.reqs[o.Idx]); return }},
		{"engine.match", func() (err error) { res, err = d.st.Engine().Match(context.Background(), q, opts); return }},
		{"api.encode", func() error {
			_, err := json.Marshal(api.MatchResponse{
				Matches: api.FromSubgraphs(res.Subgraphs), Stats: api.FromStats(res.Stats)})
			return err
		}},
	} {
		start := t.rec.now()
		if err := step.call(); err != nil {
			return err
		}
		if !record {
			continue
		}
		if k := t.rec.add(step.name, i, start, t.rec.now(), t.serve[i]); step.name == "engine.match" {
			t.eng[i] = k
		}
	}
	return nil
}

// kernelOp makes the calls Engine.Match makes for one op, then lets the
// real Match run untimed, so that this depth's plan cache moves as the
// others' did.
func (t *replay) kernelOp(d *depth, i int, o op) error {
	if o.Kind == opUpdate {
		_, err := d.st.Apply(lower(d.ch.mutations()))
		return err
	}
	q, opts, err := decode(d.st, t.w.reqs[o.Idx])
	if err != nil {
		return err
	}
	t.kernelDepth(d.st, i, q, opts)
	_, err = d.st.Engine().Match(context.Background(), q, opts)
	return err
}

// kernelDepth makes, from outside, the calls Engine.Match would make for q
// on st right now: it peeks at the plan cache for the outcome Match is about
// to get (a hit does no kernel work; a refresh or a containment hit
// restricts the centers), then canonicalizes, filters, prunes and evaluates
// the surviving balls on the engine's worker count.
func (t *replay) kernelDepth(st *live.Store, i int, q *graph.Graph, opts engine.QueryOptions) {
	rec, parent := t.rec, t.eng[i]
	e := st.Engine()
	snap := e.Snapshot()
	g := snap.Graph()
	radius, _ := graph.Diameter(q)

	var canon string
	rec.time("plan.canon", i, parent, func() { canon, _ = plan.Canon(q) })
	mode := 0
	for bit, on := range []bool{opts.MinimizeQuery, opts.DualFilter, opts.ConnectivityPruning} {
		if on {
			mode |= 1 << bit
		}
	}
	cache := st.Planner().Cache()
	cached, outcome := cache.Get(plan.CacheKey(canon, radius, mode), snap.Version())
	var restrict []int32
	restricted := outcome == plan.OutcomeRefresh
	switch outcome {
	case plan.OutcomeHit:
		t.outcome[i] = outcome
		return
	case plan.OutcomeRefresh:
		restrict = cached.Pending
	default:
		if cs := cache.FindContaining(q, radius, snap.Version()); cs != nil {
			outcome, restrict, restricted = plan.OutcomeContained, cs.Centers, true
		}
	}
	t.outcome[i] = outcome

	qEff := q
	if opts.MinimizeQuery {
		qEff, _ = core.MinimizeQuery(q)
	}
	var global simulation.Relation
	var centers []int32
	if opts.DualFilter {
		matched := false
		rec.time("simulation.dual_global", i, parent, func() { global, matched = simulation.Dual(qEff, g) })
		if !matched {
			return
		}
		centers = global.DataNodes(g.NumNodes()).Slice()
	} else {
		centers = snap.CandidateCenters(qEff).Slice()
	}
	ix := snap.PruneIndex() // a rebuild after an update stays in engine.match's self time
	rec.time("plan.prune", i, parent, func() { centers = ix.Prune(qEff, radius, centers, new(plan.PruneStats)) })
	if restricted {
		centers = intersect(centers, restrict)
	}

	coreOpts := core.Options{MinimizeQuery: opts.MinimizeQuery, DualFilter: opts.DualFilter,
		ConnectivityPruning: opts.ConnectivityPruning}
	type ballTimes struct {
		start, built, done int64
		nodes              int
	}
	_ = exec.Run(context.Background(), exec.Options{Workers: e.Workers()}, len(centers),
		func(s *exec.Scratch, pos int) ballTimes {
			bt := ballTimes{start: rec.now()}
			ball := snap.BallIn(&s.Balls, centers[pos], radius)
			bt.built = rec.now()
			core.EvalPreparedBallIn(qEff, ball, centers[pos], coreOpts, global, &s.Sim)
			bt.done, bt.nodes = rec.now(), ball.G.NumNodes()
			return bt
		},
		func(_ int, bt ballTimes) bool {
			rec.add("graph.ball_build", i, bt.start, bt.built, parent)
			rec.add("core.ball_eval", i, bt.built, bt.done, parent)
			t.ballNodes = append(t.ballNodes, float64(bt.nodes))
			return true
		})
}

// intersect keeps the elements of ascending a that ascending b also holds.
func intersect(a, b []int32) []int32 {
	out := a[:0]
	for _, x := range a {
		for len(b) > 0 && b[0] < x {
			b = b[1:]
		}
		if len(b) > 0 && b[0] == x {
			out = append(out, x)
		}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire types of package api always marshal
	}
	return b
}

// lower turns the churner's wire mutations (edge inserts and deletes only)
// into the store's.
func lower(muts []api.MutationJSON) []live.Mutation {
	out := make([]live.Mutation, len(muts))
	for i, m := range muts {
		out[i] = live.Mutation{Op: live.Op(m.Op), U: *m.U, V: *m.V}
	}
	return out
}

// report folds the spans into the per-layer metrics and the latency budget.
func (t *replay) report(rep *report, set func(string, float64, int), floor float64) {
	spans := t.rec.spans
	wall := wallShares(spans)
	type agg struct {
		durMS, wallMS float64
		n             int
	}
	by := make(map[string]*agg)
	for i, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = new(agg)
			by[s.Name] = a
		}
		a.durMS += float64(s.dur()) / 1e6
		a.wallMS += wall[i] / 1e6
		a.n++
	}
	get := func(name string) agg {
		if a := by[name]; a != nil {
			return *a
		}
		return agg{}
	}
	matches := float64(get("client.match").n) // every sampled match, at every depth
	perMatch := func(total float64) float64 { return total / matches }
	perSpan := func(a agg) float64 {
		if a.n == 0 {
			return 0
		}
		return a.durMS / float64(a.n)
	}
	m := int(matches)

	set("client.match_ms", perSpan(get("client.match")), m)
	set("client.self_ms", perMatch(get("client.match").wallMS), m)
	set("api.serve_ms", perSpan(get("api.serve")), m)
	set("api.self_ms", perMatch(get("api.serve").wallMS), m)
	set("api.decode_us", 1e3*perSpan(get("api.decode")), m)
	set("api.encode_us", 1e3*perSpan(get("api.encode")), m)
	set("api.response_bytes", mean(t.bodyBytes), m)
	set("engine.match_ms", perSpan(get("engine.match")), m)
	set("engine.self_ms", perMatch(get("engine.match").wallMS), m)
	set("plan.canon_us", 1e3*perSpan(get("plan.canon")), m)
	set("plan.prune_us", 1e3*perSpan(get("plan.prune")), get("plan.prune").n)
	set("simulation.dual_global_ms", perSpan(get("simulation.dual_global")), get("simulation.dual_global").n)
	balls := get("graph.ball_build").n
	set("graph.ball_build_us", 1e3*perSpan(get("graph.ball_build")), balls)
	set("core.ball_eval_us", 1e3*perSpan(get("core.ball_eval")), balls)
	set("graph.ball_nodes_mean", mean(t.ballNodes), balls)
	set("core.balls_per_query", perMatch(float64(balls)), m)
	set("live.apply_ms", perSpan(get("live.apply")), get("live.apply").n)
	set("live.apply_sq0_ms", mean(t.applySQ0), len(t.applySQ0))

	// What the engine depth saw, split by what the kernel depth's peek at the
	// plan cache said the same request would get.
	var hits, afterUpdate []float64
	updated := false
	for i, o := range t.w.sample {
		switch o.Kind {
		case opUpdate:
			updated = true
		case opMatch:
			d := float64(spans[t.eng[i]].dur()) / 1e6
			if t.outcome[i] == plan.OutcomeHit {
				hits = append(hits, d)
			}
			if updated {
				afterUpdate = append(afterUpdate, d)
			}
			updated = false
		}
	}
	set("plan.hit_serve_ms", mean(hits), len(hits))
	set("live.first_match_after_update_ms", mean(afterUpdate), len(afterUpdate))

	// The budget: every layer's mean share of a sampled match's wall time.
	// The client layer is entered at the Healthz floor, the one part of it a
	// probe explains; what the floor leaves of client.self_ms, together with
	// any disagreement between depths, is the unexplained remainder.
	total := perSpan(get("client.match"))
	rows := []budgetRow{{Layer: "client.floor", MS: floor}}
	if t.w.spec.Sharded {
		var over []float64
		for i, o := range t.w.sample {
			if o.Kind == opMatch {
				over = append(over, float64(spans[t.root[i]].dur())/1e6-t.single[i])
			}
		}
		set("shard.overhead_ms", mean(over), len(over))
		rows = append(rows, budgetRow{Layer: "shard.overhead", MS: mean(over)})
	}
	for _, l := range []struct{ layer, span string }{
		{"api.self", "api.serve"}, {"api.decode", "api.decode"}, {"api.encode", "api.encode"},
		{"engine.self", "engine.match"}, {"plan.canon", "plan.canon"},
		{"simulation.dual_global", "simulation.dual_global"}, {"plan.prune", "plan.prune"},
		{"graph.ball_build", "graph.ball_build"}, {"core.ball_eval", "core.ball_eval"},
	} {
		rows = append(rows, budgetRow{Layer: l.layer, MS: perMatch(get(l.span).wallMS)})
	}
	sum := 0.0
	for i := range rows {
		sum += rows[i].MS
		rows[i].Share = rows[i].MS / total
	}
	rep.Budget = append(rows,
		budgetRow{"sum_layers", sum, sum / total},
		budgetRow{"unexplained", total - sum, (total - sum) / total},
		budgetRow{"client.match", total, 1})
	set("budget.sum_layers_ms", sum, m)
	set("budget.unexplained_ms", total-sum, m)
	set("budget.unexplained_share", (total-sum)/total, m)
}

// floorProbes is how many Healthz round trips clientFloor takes the median of.
const floorProbes = 200

// clientFloor is the SDK's Healthz round trip: loopback, net/http on both
// sides and the SDK's own framing, with no work behind it.
func clientFloor(r *runner) float64 {
	rtt := make([]float64, floorProbes)
	for i := range rtt {
		start := time.Now()
		_, _ = r.cls[0].Healthz(context.Background()) // a dead server has failed the replay already
		rtt[i] = ms(time.Since(start))
	}
	return median(rtt)
}

// probes times single functions of single layers on this workload's inputs.
func probes(w *workload, set func(string, float64, int)) {
	ctx := context.Background()

	// exec: what the pool costs per task when the task is free, and what a
	// second worker buys on a fixed list of real balls.
	const tasks = 200000
	start := time.Now()
	_ = exec.Run(ctx, exec.Options{}, tasks,
		func(*exec.Scratch, int) struct{} { return struct{}{} },
		func(int, struct{}) bool { return true })
	set("exec.dispatch_us_per_task", 1e3*ms(time.Since(start))/tasks, tasks)

	snap := engine.NewSnapshot(w.g)
	var q *graph.Graph
	for _, o := range w.sample { // a radius-1 ball is too small to be worth a second worker
		if o.Kind != opMatch {
			continue
		}
		if q = w.pattern(o.Idx); q.NumNodes() > 2 {
			break
		}
	}
	centers := snap.CandidateCenters(q).Slice()
	centers = centers[:min(len(centers), 1000)]
	var wall [2][]float64
	for range 3 {
		for k, workers := range []int{1, 0} {
			e := engine.NewWithSnapshot(snap, engine.Config{Workers: workers})
			start := time.Now()
			_ = e.EvalCenters(ctx, q, 0, centers, nil, func(int, *core.PerfectSubgraph) {})
			wall[k] = append(wall[k], ms(time.Since(start)))
		}
	}
	set("exec.speedup_w2", median(wall[0])/median(wall[1]), len(centers))

	build := make([]float64, 3)
	for i := range build {
		start := time.Now()
		plan.NewIndex(w.g)
		build[i] = ms(time.Since(start))
	}
	set("plan.index_build_ms", median(build), len(build))

	// core: the paper's sequential Match (Match+ on the plus workloads), the
	// reference every served answer is checked against.
	opts := core.Options{Workers: 1}
	if w.spec.Mode == api.ModePlus {
		opts = core.PlusOptions()
		opts.Workers = 1
	}
	var seq []float64
	for _, o := range w.sample {
		if len(seq) == 4 {
			break
		}
		if o.Kind == opMatch {
			start := time.Now()
			_, _ = core.MatchWith(w.pattern(o.Idx), w.g, opts) // connected by construction
			seq = append(seq, ms(time.Since(start)))
		}
	}
	set("core.match_seq_ms", mean(seq), len(seq))
}
