package api

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// Query modes. Both answer the same matches (Match+ ≡ Match) and both run
// the global dual-simulation filter (Fig. 5), which is sound for plain Match
// because a dual simulation on a ball is one on G (Proposition 1). Plain
// stops there; Plus adds Match+'s query minimization (minQ, Fig. 4) and
// connectivity pruning (Section 4.2). The pre-/v1 spellings "match" and
// "match+" are accepted for migration.
const (
	ModePlain = "plain"
	ModePlus  = "plus"
)

// Ranking metric names for QuerySpec.Metric.
const (
	MetricDefault     = "default"
	MetricCompactness = "compactness"
	MetricDensity     = "density"
	MetricSelectivity = "selectivity"
)

// QuerySpec is the one place every query option lives on the wire. It
// replaces the options that were scattered across core.Options,
// engine.QueryOptions and ad-hoc request fields, and compiles to
// engine.QueryOptions via Compile. The zero value is a plain unranked
// unlimited query under the server's default deadline.
type QuerySpec struct {
	// Mode is ModePlain (default) or ModePlus.
	Mode string `json:"mode,omitempty"`
	// Radius overrides the ball radius; 0 uses the pattern diameter dQ.
	Radius int `json:"radius,omitempty"`
	// Limit stops the query after this many distinct subgraphs; 0 = all.
	Limit int `json:"limit,omitempty"`
	// TopK returns only the k best matches under Metric; 0 returns every
	// match unranked.
	TopK int `json:"top_k,omitempty"`
	// Metric names the ranking metric for TopK; "" means MetricDefault.
	Metric string `json:"metric,omitempty"`
	// DeadlineMS is the per-request deadline in milliseconds, clamped to
	// the server's maximum; 0 uses the server default. The client SDK fills
	// it from the context deadline when unset.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Stats opts into per-query stage tracing: the response additionally
	// carries a QueryStatsJSON with candidate-center and ball-size totals
	// plus per-stage wall times. Tracing never changes the matches.
	Stats bool `json:"stats,omitempty"`
	// AllowPartial opts into degraded scatter/gather responses on router
	// deployments: when a shard is unavailable after every replica and retry,
	// the router answers the reachable shards' results with a PartialJSON
	// marker instead of failing with CodeShardUnavailable. Single-node
	// servers ignore it (their responses are always complete).
	AllowPartial bool `json:"allow_partial,omitempty"`
	// NoPlan bypasses the server's result cache for this request — the
	// escape hatch for debugging and for parity checks (a cached and an
	// uncached answer carry identical matches).
	NoPlan bool `json:"no_plan,omitempty"`
}

// mode returns the canonical spelling of s.Mode: ModePlain for "", "plain"
// and "match", ModePlus for "plus" and "match+", and anything else as given.
func (s QuerySpec) mode() string {
	switch s.Mode {
	case "", ModePlain, "match":
		return ModePlain
	case ModePlus, "match+":
		return ModePlus
	}
	return s.Mode
}

// MetricByName resolves a wire metric name to its ranking function.
func MetricByName(name string) (core.Metric, error) {
	switch name {
	case "", MetricDefault:
		return core.DefaultMetric, nil
	case MetricCompactness:
		return core.ScoreCompactness, nil
	case MetricDensity:
		return core.ScoreDensity, nil
	case MetricSelectivity:
		return core.ScoreSelectivity, nil
	default:
		return nil, fmt.Errorf("unknown metric %q", name)
	}
}

// Compile validates the spec and lowers it to the engine's query options
// and ranking metric. Errors are suitable for an invalid_query response.
func (s QuerySpec) Compile() (engine.QueryOptions, core.Metric, error) {
	// Both modes start from Match+, whose DualFilter stays set: the engine
	// ignores it, but bench/ replays and keys the cache by it.
	opts := engine.PlusQuery()
	switch s.mode() {
	case ModePlain:
		opts.MinimizeQuery, opts.ConnectivityPruning = false, false
	case ModePlus:
	default:
		return opts, nil, fmt.Errorf("unknown mode %q (want %q or %q)", s.Mode, ModePlain, ModePlus)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"radius", s.Radius}, {"limit", s.Limit}, {"top_k", s.TopK}, {"deadline_ms", s.DeadlineMS}} {
		if f.v < 0 {
			return opts, nil, fmt.Errorf("%s must not be negative (got %d)", f.name, f.v)
		}
	}
	opts.Radius = s.Radius
	opts.Limit = s.Limit
	metric, err := MetricByName(s.Metric)
	if err != nil {
		return opts, nil, err
	}
	return opts, metric, nil
}
