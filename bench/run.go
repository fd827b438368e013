package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/api"
)

// config is one run of one workload.
type config struct {
	spec    workloadSpec
	seed    int64
	seconds float64 // length of the measured phase (1 s under smoke)
	trace   bool    // traced pass (per-layer metrics) instead of the timed run
	smoke   bool    // 2000-node graph, small pools, 1 s phases: compile-and-run check only
	outDir  string  // where span files go
}

func (c config) nodes() int {
	if c.smoke {
		return 2000
	}
	return 100000
}

// warmup is fixed rather than scaled with seconds: it has to fill caches
// and build the prune index, not to be measured.
func (c config) warmup() time.Duration {
	if c.smoke {
		return 200 * time.Millisecond
	}
	return time.Second
}

func (c config) phase() time.Duration {
	if c.smoke {
		return time.Second
	}
	return time.Duration(c.seconds * float64(time.Second))
}

// metric is one reported number; N is the sample count behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// check is one validity assertion of a workload's self-check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// report is everything one run prints. Metrics holds exactly the gated
// end-to-end metrics (timed run) or exactly the per-layer metrics (traced
// run); Also holds what is printed beside them, WallS where the run's own
// wall time went.
type report struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Trace     bool               `json:"trace"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Nodes     int                `json:"nodes"`
	Edges     int                `json:"edges"`
	Pool      int                `json:"pool"`
	Sample    int                `json:"traced_sample"`
	Digest    string             `json:"ops_digest"`
	GenS      float64            `json:"bench.gen_s"`
	Metrics   map[string]metric  `json:"metrics"`
	Also      map[string]metric  `json:"also,omitempty"`
	WallS     map[string]float64 `json:"wall_s"`
	Budget    []budgetRow        `json:"budget,omitempty"`
	Checks    []check            `json:"checks,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
}

func (rep *report) check(name string, ok bool, format string, args ...any) {
	rep.Checks = append(rep.Checks, check{name, ok, fmt.Sprintf(format, args...)})
	if !ok {
		rep.Correct = false
	}
}

// set stores a metric under the unit its spec declares.
func (rep *report) set(specs []metricSpec, name string, v float64, n int) {
	for _, s := range specs {
		if s.Name == name {
			rep.Metrics[name] = metric{v, s.Unit, n}
			return
		}
	}
	panic("bench: metric " + name + " is not in the spec")
}

// runWorkload generates the workload and makes the timed or the traced run.
func runWorkload(cfg config) (*report, error) {
	w, err := newWorkload(cfg.spec, cfg.nodes(), cfg.seed, cfg.smoke)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: cfg.spec.Name, Why: cfg.spec.Why, Trace: cfg.trace,
		Seed: cfg.seed, Seconds: cfg.phase().Seconds(),
		Nodes: w.g.NumNodes(), Edges: w.g.NumEdges(),
		Pool: len(w.reqs), Sample: len(w.sample), Digest: w.digest(), GenS: w.genS,
		Metrics: make(map[string]metric), Also: make(map[string]metric),
		WallS:   map[string]float64{"generate": w.genS},
		Correct: true,
	}
	if cfg.trace {
		err = tracedRun(cfg, w, rep)
	} else {
		err = timedRun(cfg, w, rep)
	}
	if err != nil {
		return nil, err
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	return rep, nil
}

// lap stores under name the seconds since *from and moves *from to now.
func (rep *report) lap(name string, from *time.Time) {
	now := time.Now()
	rep.WallS[name] = now.Sub(*from).Seconds()
	*from = now
}

// primeOps is how many match requests set-up sends before it is done: one
// per pattern size, so the prune index and its hop signatures exist.
const primeOps = 3

// setUp brings a stack to the point where it can serve: store, server (or
// shard plan, fleet and push), listener, clients, standing queries, and the
// first planned queries, which build the prune index.
func setUp(w *workload, cfg api.Config) (*runner, error) {
	st, err := newStack(w.g, w.spec.Sharded, cfg)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(w, st)
	if err != nil {
		st.close()
		return nil, err
	}
	ctx := context.Background()
	if _, err := r.cls[0].Healthz(ctx); err != nil {
		r.close()
		return nil, err
	}
	for _, req := range w.reqs[:primeOps] {
		if _, err := r.cls[0].Match(ctx, req); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// Set-up is repeated while it is cheap, each time from a collected heap, and
// setup_s is the median of the repetitions. One sharded set-up alone pushes
// a million edges through 132 update batches and takes 4 s; every second
// spent here is spent 70 times inside the driver's time cap.
const (
	setupRepeats = 15
	setupBudget  = 1500 * time.Millisecond
)

// timedRun is set-up → warm-up → measured phase → heap → verification, with
// every server-side tracing and debug surface off.
func timedRun(cfg config, w *workload, rep *report) error {
	clock := time.Now()
	host, err := theProbe()
	if err != nil {
		return err
	}
	rep.lap("host_probe", &clock)
	var setups []float64
	var r *runner
	host.start()
	for begin := clock; len(setups) < setupRepeats && (r == nil || time.Since(begin) < setupBudget); {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if r, err = setUp(w, api.Config{}); err != nil {
			host.slowdown()
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer r.close()
	// Set-up works on one core and goes with the geometric mean of the
	// probe's two factors; the serving phases keep both cores busy and go
	// with their product (README, "Steadiness").
	slow, probes := host.slowdown()
	slow = math.Sqrt(slow)
	rep.set(endToEnd, "setup_s", median(setups)/slow, len(setups))
	rep.Also["raw.setup_s"] = metric{median(setups), "s", len(setups)}
	rep.Also["host.slowdown_setup"] = metric{slow, "ratio", probes}
	rep.lap("set_up", &clock)

	r.phase(cfg.warmup(), true)
	rep.lap("warm_up", &clock)
	before := r.st.store.Current().ID()
	host.start()
	res, ctr, err := r.measured(cfg.phase())
	slow, probes = host.slowdown()
	if err != nil {
		return err
	}
	rep.Also["host.slowdown"] = metric{slow, "ratio", probes}
	rep.lap("measured", &clock)
	// One more match, so that the heap always holds the current version's
	// prune index, whether the last op was an update or not.
	if !r.do(0, op{opMatch, 0}) {
		res.failed++
	}
	res.attempted++
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	// Every gated figure is over the whole measured phase: a leak, a cache
	// that degrades or a periodic stall in any part of it is in the number.
	// The timed ones are stated at the host's nominal speed (hostprobe.go);
	// what the clients' clocks read is printed beside them as raw.*.
	matches := res.lat[opMatch]
	rps, p50, p90 := float64(res.ok())/res.seconds, quantile(matches, 0.50), quantile(matches, 0.90)
	rep.set(endToEnd, "throughput_rps", rps*slow, res.ok())
	rep.set(endToEnd, "match_p50_ms", p50/slow, len(matches))
	rep.set(endToEnd, "match_p90_ms", p90/slow, len(matches))
	rep.set(endToEnd, "heap_live_mb", float64(mem.HeapAlloc)/(1<<20), 1)
	rep.Also["raw.throughput_rps"] = metric{rps, "ops/s", res.ok()}
	rep.Also["raw.match_p50_ms"] = metric{p50, "ms", len(matches)}
	rep.Also["raw.match_p90_ms"] = metric{p90, "ms", len(matches)}
	if top := topPercentile(len(matches)); top > 0.90 {
		rep.Also[fmt.Sprintf("raw.match_p%g_ms", top*100)] = metric{quantile(matches, top), "ms", len(matches)}
	}
	if updates := res.lat[opUpdate]; len(updates) > 0 {
		rep.Also["raw.update_p50_ms"] = metric{quantile(updates, 0.50), "ms", len(updates)}
		rep.Also["raw.update_p90_ms"] = metric{quantile(updates, 0.90), "ms", len(updates)}
	}
	rep.Attempted, rep.Failed = res.attempted, res.failed

	// Self-check: the workload did what its one-line reason says.
	hit := ctr.cacheHitRatio()
	if w.spec.Churn {
		after := r.st.store.Current().ID()
		rep.check("updates applied and version advanced",
			ctr["live_update_batches_total"] > 0 && after > before,
			"%g batches, version %d -> %d", ctr["live_update_batches_total"], before, after)
		// Full runs read 0.24 to 0.30. The check says that the cache is in
		// use, with room for a slow hour and for -smoke's one-second phase.
		rep.check("plan.cache_hit_ratio > 0.1", hit > 0.1, "%.4f", hit)
	} else {
		rep.check("plan.cache_hit_ratio < 0.02", hit < 0.02, "%.4f", hit)
	}
	if w.spec.Sharded {
		h, err := r.cls[0].Healthz(context.Background())
		if err != nil {
			return err
		}
		serving := 0
		for _, sh := range h.Shards {
			if sh.Serving > 0 {
				serving++
			}
		}
		rep.check("every shard serving", serving == shardCount, "%d/%d", serving, shardCount)
		rep.check("no partial responses", ctr["router_partial_responses_total"] == 0,
			"%g", ctr["router_partial_responses_total"])
	}

	verifyN := verifySample
	if cfg.smoke {
		verifyN = 8
	}
	for _, v := range r.verify(cfg.seed, verifyN) {
		rep.Attempted++
		if v.err != nil {
			rep.Failed++
			rep.check("verify "+v.what, false, "%v", v.err)
		}
	}
	rep.Also["error_rate"] = metric{float64(rep.Failed) / float64(rep.Attempted), "ratio", rep.Attempted}
	rep.lap("verify", &clock)
	return nil
}
