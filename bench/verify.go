package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/api"
	"repro/internal/core"
	"repro/internal/graph"
)

// verdict is one served answer checked against the paper's definition.
type verdict struct {
	what string
	err  error
}

// verify is the correctness gate, run on the quiesced stack after the
// measured phase. It re-issues a seeded sample of the workload's match
// requests (cached answers included, which is the point on repeat-churn)
// and fetches every standing result, then requires each served "matches"
// array to equal, byte for byte, api.FromSubgraphs of the sequential
// core.MatchWith on the store's current graph, and one subgraph of each
// answer to pass PerfectSubgraph.Verify. On sharded-plus the served side is
// the router, the reference a single node's answer.
//
// The gate runs 70 times inside the driver's time cap, so it is held to
// about a second. The reference runs Match+ (core.PlusOptions): Match+ ≡
// Match subgraph for subgraph, at 15 ms a query where plain Match takes 300.
// The first sampled request is checked against plain Match as well, so the
// optimizations never vouch for themselves alone. Verify walks the whole
// graph from the subgraph's center (12 ms), so it is given one subgraph per
// answer — the i-th answer's i-th, so every position takes its turn — and
// not the 5 to 40 an answer holds.
func (r *runner) verify(seed int64, n int) []verdict {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed ^ 0x7665726966))
	type item struct {
		what   string
		pat    *api.PatternJSON
		served []api.SubgraphJSON
		err    error
		plain  bool
	}
	var items []item
	for len(items) < n {
		seq := r.w.ops[len(items)%clients]
		o := seq[rng.Intn(len(seq))]
		if o.Kind != opMatch {
			continue
		}
		req := r.w.reqs[o.Idx]
		res, err := r.cls[0].Match(ctx, req)
		it := item{what: fmt.Sprintf("match pattern %d", o.Idx), pat: req.Pattern, err: err, plain: len(items) == 0}
		if err == nil {
			it.served = res.Matches
		}
		items = append(items, it)
	}
	for slot, id := range r.standing {
		qj, err := r.cls[0].StandingQuery(ctx, id)
		it := item{what: fmt.Sprintf("standing query %d", id), pat: r.w.reqs[slot].Pattern, err: err}
		if err == nil {
			it.served = qj.Matches
			if it.served == nil { // omitempty drops an empty result set
				it.served = []api.SubgraphJSON{}
			}
		}
		items = append(items, it)
	}

	g := r.st.store.Current().Graph()
	out := make([]verdict, len(items))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(items); i += workers {
				it := items[i]
				out[i].what = it.what
				if out[i].err = it.err; it.err == nil {
					out[i].err = checkAnswer(g, it.pat, it.served, it.plain, i)
				}
			}
		}(k)
	}
	wg.Wait()
	return out
}

// checkAnswer holds one served result set to the definition on g; pick
// chooses the subgraph that is verified.
func checkAnswer(g *graph.Graph, pat *api.PatternJSON, served []api.SubgraphJSON, alsoPlain bool, pick int) error {
	q, err := pat.ToGraph(g.Labels().Clone())
	if err != nil {
		return err
	}
	got, err := json.Marshal(served)
	if err != nil {
		return err
	}
	// Sequential references: verify already runs one answer per processor.
	modes := []core.Options{core.PlusOptions()}
	if alsoPlain {
		modes = append(modes, core.Options{})
	}
	for i := range modes {
		modes[i].Workers = 1
	}
	var ref *core.Result
	for _, opts := range modes {
		if ref, err = core.MatchWith(q, g, opts); err != nil {
			return err
		}
		want, err := json.Marshal(api.FromSubgraphs(ref.Subgraphs))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("served %d subgraphs (%d bytes), reference (dual filter %v) has %d (%d bytes)",
				len(served), len(got), opts.DualFilter, len(ref.Subgraphs), len(want))
		}
	}
	if n := len(ref.Subgraphs); n > 0 {
		radius, _ := graph.Diameter(q)
		ps := ref.Subgraphs[pick%n]
		if err := ps.Verify(q, g, radius); err != nil {
			return fmt.Errorf("subgraph at center %d: %w", ps.Center, err)
		}
	}
	return nil
}
