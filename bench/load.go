package main

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/obs"
)

// runner drives one stack with the workload's closed-loop clients.
type runner struct {
	w        *workload
	st       *stack
	cls      [clients]*client.Client
	standing []int64          // standing-query ids, repeat-churn only
	churn    [clients]churner // this stack's update batches, from the first
	stats    bool             // ask for per-query stats on every match
	next     [clients]int     // where each client's next measured phase resumes
	closeFns []func()
}

// newRunner connects the clients and, on repeat-churn, registers the
// standing queries (the first standingN patterns of the pool).
func newRunner(w *workload, st *stack) (*runner, error) {
	r := &runner{w: w, st: st, churn: w.churn}
	for c := range r.cls {
		cl, closeIdle := st.newClient()
		r.cls[c] = cl
		r.closeFns = append(r.closeFns, closeIdle)
	}
	if w.spec.Churn {
		for i := 0; i < standingN; i++ {
			qj, err := r.cls[0].RegisterStandingQuery(context.Background(),
				api.RegisterRequest{Pattern: w.reqs[i].Pattern})
			if err != nil {
				r.close()
				return nil, err
			}
			r.standing = append(r.standing, qj.ID)
		}
	}
	return r, nil
}

func (r *runner) close() {
	for _, f := range r.closeFns {
		f()
	}
	r.st.close()
}

// do issues one op as client c and reports whether it succeeded. A match
// answered partially counts as failed: no workload allows partial results.
func (r *runner) do(c int, o op) bool {
	ctx := context.Background()
	switch o.Kind {
	case opMatch:
		req := r.w.reqs[o.Idx]
		req.Query.Stats = r.stats
		res, err := r.cls[c].Match(ctx, req)
		return err == nil && res.Partial == nil
	case opUpdate:
		_, err := r.cls[c].Update(ctx, r.churn[c].mutations()...)
		return err == nil
	default:
		_, err := r.cls[c].PollDelta(ctx, r.standing[o.Idx])
		return err == nil
	}
}

// phaseResult is what the clients observed over one closed-loop phase.
type phaseResult struct {
	seconds   float64
	lat       [len(opNames)][]float64 // latencies of the successful ops per kind, ms, sorted
	attempted int
	failed    int
}

func (p *phaseResult) ok() int { return p.attempted - p.failed }

// warmLen is how much of a client's sequence only the warm-up issues.
func warmLen(seq []op) int { return min(warmOps, len(seq)/4) }

// phase runs every client in a closed loop for d: each sends its next op
// when the previous one has been answered. Warm-up cycles through the
// prefix of each sequence; measured phases walk the rest, each resuming
// where the last one stopped.
func (r *runner) phase(d time.Duration, warm bool) phaseResult {
	var per [clients]phaseResult
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range r.cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seq, i := r.w.ops[c], 0
			if n := warmLen(seq); warm {
				seq = seq[:n]
			} else {
				seq, i = seq[n:], r.next[c]
				defer func() { r.next[c] = i }()
			}
			res := &per[c]
			for ; time.Now().Before(deadline); i++ {
				o := seq[i%len(seq)]
				t := time.Now()
				ok := r.do(c, o)
				took := time.Since(t)
				res.attempted++
				if ok {
					res.lat[o.Kind] = append(res.lat[o.Kind], ms(took))
				} else {
					res.failed++
				}
			}
		}(c)
	}
	wg.Wait()
	out := phaseResult{seconds: time.Since(start).Seconds()}
	for _, p := range per {
		out.attempted += p.attempted
		out.failed += p.failed
		for k := range p.lat {
			out.lat[k] = append(out.lat[k], p.lat[k]...)
		}
	}
	for k := range out.lat {
		sort.Float64s(out.lat[k])
	}
	return out
}

// quantile reads the q-quantile of ascending xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

// median is the 0.5-quantile of xs in any order.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the candidates of the reporting rule, ascending.
var tailPercentiles = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// supported reports whether n samples leave at least ten beyond percentile
// p — the rule for which percentiles a sample may be summarized by.
func supported(n int, p float64) bool {
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 0.9*100 must not round up to 91
	return n-rank >= 10
}

// topPercentile is the highest candidate percentile n samples support;
// 0 when even the median has fewer than ten samples beyond it.
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range tailPercentiles {
		if supported(n, p) {
			top = p
		}
	}
	return top
}

// scrape reads the server's own counters off /v1/metrics. Labelled series
// are summed per metric name: shards and router share one registry here.
func (r *runner) scrape() (map[string]float64, error) {
	raw, err := r.cls[0].Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	series, err := obs.ParseText(strings.NewReader(raw))
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(series))
	for key, v := range series {
		name, _, _ := strings.Cut(key, "{")
		out[name] += v
	}
	return out, nil
}

// counters is the movement of the server's counters over one phase.
type counters map[string]float64

func diff(before, after map[string]float64) counters {
	d := make(counters, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ratio is num/den over the named counters, 0 when den did not move.
func (c counters) ratio(num, den string) float64 {
	if c[den] == 0 {
		return 0
	}
	return c[num] / c[den]
}

// cacheHitRatio is the share of cache-consulting matches answered from a
// cached entry outright (exact or containment hit).
func (c counters) cacheHitRatio() float64 {
	hits := c["plan_cache_hits_total"] + c["plan_cache_contained_hits_total"]
	lookups := hits + c["plan_cache_refresh_total"] + c["plan_cache_misses_total"]
	if lookups == 0 {
		return 0
	}
	return hits / lookups
}

// measured runs one measured phase between two counter scrapes.
func (r *runner) measured(d time.Duration) (phaseResult, counters, error) {
	before, err := r.scrape()
	if err != nil {
		return phaseResult{}, nil, err
	}
	res := r.phase(d, false)
	after, err := r.scrape()
	if err != nil {
		return phaseResult{}, nil, err
	}
	return res, diff(before, after), nil
}
