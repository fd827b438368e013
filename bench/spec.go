package main

// metricSpec names one metric of the benchmark. BENCHMARK.json repeats
// these tables (TestBenchmarkJSONMatchesSpec keeps the two in step).
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // relative worsening that counts as a regression; end-to-end only
}

// endToEnd is what a caller of the serving stack sees, reported on every
// workload by a timed run and gated by the driver. Throughput and the two
// latency quantiles are taken over the whole measured phase, setup_s is the
// median of the run's set-ups; all four are stated at the host's nominal
// speed (hostprobe.go). update_p50_ms, update_p90_ms and error_rate are
// printed beside them but cannot be gated: the first two exist only on
// repeat-churn (a gated metric may never read 0) and live on as
// live.update_p50_ms / live.update_p90_ms; failures reach the driver as the
// attempted/failed counts of the result line. Two sets of ten seeds spread
// by 3 to 12 % on the timed figures (raw clocks in the same runs: 10 to
// 48 %), which the contract's rule of three puts at its cap of 0.25: see
// README.md, "Steadiness".
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "ops/s", "higher", 0.25},
	{"match_p50_ms", "ms", "lower", 0.25},
	{"match_p90_ms", "ms", "lower", 0.25},
	{"heap_live_mb", "MiB", "lower", 0.15},
}

// perLayer is reported by a traced run; none of it is gated. A metric that
// does not apply to a workload reads 0 there.
var perLayer = []metricSpec{
	{"bench.gen_s", "s", "lower", 0},
	{"client.match_ms", "ms", "lower", 0},
	{"client.floor_ms", "ms", "lower", 0},
	{"client.self_ms", "ms", "lower", 0},
	{"client.match_p99_ms", "ms", "lower", 0},
	{"api.serve_ms", "ms", "lower", 0},
	{"api.self_ms", "ms", "lower", 0},
	{"api.decode_us", "us", "lower", 0},
	{"api.encode_us", "us", "lower", 0},
	{"api.response_bytes", "B", "lower", 0},
	{"engine.match_ms", "ms", "lower", 0},
	{"engine.self_ms", "ms", "lower", 0},
	{"exec.dispatch_us_per_task", "us", "lower", 0},
	{"exec.speedup_w2", "ratio", "higher", 0},
	{"graph.ball_build_us", "us", "lower", 0},
	{"graph.ball_nodes_mean", "count", "lower", 0},
	{"graph.scratch_miss_ratio", "ratio", "lower", 0},
	{"core.ball_eval_us", "us", "lower", 0},
	{"core.balls_per_query", "count", "lower", 0},
	{"core.match_seq_ms", "ms", "lower", 0},
	{"simulation.scratch_miss_ratio", "ratio", "lower", 0},
	{"simulation.dual_global_ms", "ms", "lower", 0},
	{"plan.index_build_ms", "ms", "lower", 0},
	{"plan.prune_us", "us", "lower", 0},
	{"plan.candidate_reduction", "ratio", "higher", 0},
	{"plan.canon_us", "us", "lower", 0},
	{"plan.cache_hit_ratio", "ratio", "higher", 0},
	{"plan.hit_serve_ms", "ms", "lower", 0},
	{"plan.index_builds_per_update", "ratio", "lower", 0},
	{"live.apply_ms", "ms", "lower", 0},
	{"live.apply_sq0_ms", "ms", "lower", 0},
	{"live.first_match_after_update_ms", "ms", "lower", 0},
	{"live.update_p50_ms", "ms", "lower", 0},
	{"live.update_p90_ms", "ms", "lower", 0},
	{"shard.plan_build_ms", "ms", "lower", 0},
	{"shard.push_s", "s", "lower", 0},
	{"shard.halo_replication", "ratio", "lower", 0},
	{"shard.overhead_ms", "ms", "lower", 0},
	{"obs.trace_overhead_ratio", "ratio", "higher", 0},
	{"budget.sum_layers_ms", "ms", "lower", 0},
	{"budget.unexplained_ms", "ms", "lower", 0},
	{"budget.unexplained_share", "ratio", "lower", 0},
}

// workloadSpec is one traffic mix. All four run on the paper-default graph
// generator.Synthetic(n, 1.2, 200, seed) under two closed-loop clients.
type workloadSpec struct {
	Name string
	Why  string
	Mode string // api.ModePlain or api.ModePlus
	// MinNodes is the smallest |Vq|; requests cycle MinNodes, +1, +2.
	MinNodes int
	// Pool is the number of distinct patterns generated; adhoc pools dwarf
	// the 128-entry plan cache, so a wrapped pool still never hits it.
	Pool int
	// Sample is how many requests the traced pass replays at each depth. A
	// sampled update costs 0.3 s over all depths, hence 128 on repeat-churn.
	Sample  int
	Churn   bool // zipf repeats + updates + standing-query polls
	Sharded bool // served by shard.Router over 3 in-process shards
	Obs     bool // the traced run also measures the cost of observability here
	// Gated workloads are the ones BENCHMARK.json lists and the driver runs.
	// The driver's time cap is shared by all of them, and three workloads of
	// 35 s resolve more than four of 24 s (README, "Time"): sharded-plus is
	// run by the suite and by hand, not by the driver.
	Gated bool
}

var workloads = []workloadSpec{
	{Name: "adhoc-plain", Mode: "plain", MinNodes: 2, Pool: 4096, Sample: 64, Gated: true,
		Why: "distinct plain-mode patterns: ball construction and per-ball refinement do most of the work, JSON and the plan cache almost none; where a ball-kernel change must win"},
	{Name: "adhoc-plus", Mode: "plus", MinNodes: 3, Pool: 4096, Sample: 256, Obs: true, Gated: true,
		Why: "distinct Match+ patterns: one whole-graph dual simulation then a handful of balls, so HTTP/JSON, middleware and the global filter are a large share"},
	{Name: "repeat-churn", Mode: "plus", MinNodes: 3, Pool: 64, Sample: 128, Churn: true, Gated: true,
		Why: "zipf repeats of 64 patterns, 70% match / 20% update / 10% standing-delta poll: publish, index rebuild, cache invalidation and standing maintenance; the kernel does little"},
	{Name: "sharded-plus", Mode: "plus", MinNodes: 3, Pool: 4096, Sample: 256, Sharded: true,
		Why: "the adhoc-plus request sequence through shard.Router over 3 shards with halo 3; the difference to adhoc-plus is fan-out, merge and ownership filtering"},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// Fixed shape of every workload (ISSUE 11, "Load model").
const (
	clients      = 2   // closed-loop client goroutines, one connection each
	graphAlpha   = 1.2 // |E| = n^alpha
	graphLabels  = 200
	maxDiameter  = 3 // patterns are resampled until connected with dQ <= 3
	shardCount   = 3
	shardHalo    = maxDiameter
	zipfS        = 1.4
	churnDrift   = 32 // ops between shifts of the zipf ranking by one pattern
	standingN    = 4  // standing queries registered on repeat-churn
	batchSize    = 4  // mutations per update batch
	churnWindow  = 8  // batches between an edge's insert and its delete
	churnGroups  = 512
	verifySample = 32
)
