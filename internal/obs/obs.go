// Package obs is the dependency-free observability layer of the serving
// stack: a concurrency-safe metrics registry (counters, gauges, fixed-bucket
// latency histograms) rendered in the Prometheus text exposition format, the
// per-query observation record (QueryStats) the engine fills on demand, the
// flight recorder behind /v1/debug, and a request Tracer minting
// hierarchical span traces with W3C traceparent propagation and tail-based
// sampling (keep when slow, errored, explicitly sampled, or head-sampled)
// into a fixed-size kept-trace ring served by /v1/debug/traces.
//
// Every instrumented package registers its metrics into Default at package
// init and updates them with atomic operations; GET /v1/metrics (package api)
// renders Default at scrape time. Registration is get-or-create — asking for
// a metric that already exists under the same name and labels returns the
// existing one — so servers, stores and tests can be constructed repeatedly
// in one process without double-registration errors.
//
// The package imports only the standard library and allocates nothing on the
// update path: Counter, Gauge and Histogram updates are single atomic
// operations (plus a CAS loop for histogram sums), so instrumenting a code
// path that is measured by allocs/op guards is safe.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// start anchors process uptime, as reported by Uptime and the
// process_uptime_seconds gauge the HTTP layer registers.
var start = time.Now()

// Uptime returns how long the process has been running.
func Uptime() time.Duration { return time.Since(start) }

// Counter is a monotonically increasing metric. The zero value is usable,
// but counters are normally created through Registry.Counter so they render
// at scrape time.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative n is ignored: counters only go up.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down (queue depths, worker
// counts, version numbers).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency buckets in seconds: 100µs to 60s,
// roughly logarithmic with extra resolution in the 10–25ms band. The band
// was widened after an 8-client SDK load run (80:10:10 match/update/standing
// mix; /v1/match p50 7.9ms, p95 13.6ms, p99 19.4ms): with a bare 0.01→0.025 step both tail quantiles
// collapsed into the same bucket, so histogram_quantile could not tell a
// 12ms p95 from a 24ms p99. The top end extends to 60s to match the
// server's MaxTimeout default — before, anything past 10s (slow queries,
// the very thing worth measuring) fell into +Inf.
func DefBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.015, 0.02, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// Histogram counts observations into fixed buckets (cumulative at render
// time, à la Prometheus) and tracks their sum. Observe is lock-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64
	inf    atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound >= v: le is inclusive.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts,
// attributing each bucket's observations to its upper bound — the same
// estimate a Prometheus histogram_quantile gives with constant
// interpolation. Returns NaN with no observations; the top bucket reports
// +Inf as the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= rank {
			return h.bounds[i]
		}
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return math.Inf(1)
}
