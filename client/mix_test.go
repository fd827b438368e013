package client

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/api"
	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/live"
)

// TestConcurrentLiveMixAudit drives a short concurrent mix through the SDK
// against a live server with debug on and every trace kept: zipf-repeated
// matches in both modes, insert-then-delete update batches and standing-query
// delta polls, each request under a client-minted traceparent. Afterwards the
// server's own records are audited: no recent query ended in outcome
// "error", every kept trace carries the trace id and parent span the client
// sent, and every successful match trace records the four engine stages
// (or, answered from the plan cache, the plan.hit span in their place).
func TestConcurrentLiveMixAudit(t *testing.T) {
	g := generator.Synthetic(400, 1.2, 10, 1)
	st := live.NewStore(g, live.Config{Workers: 2})
	ts := httptest.NewServer(api.NewLiveServer(st, api.Config{EnableDebug: true, TraceSampleRate: 1}))
	t.Cleanup(ts.Close)
	cl := New(ts.URL)
	ctx := context.Background()

	pats := make([]string, 8)
	for i := range pats {
		pats[i] = graph.FormatString(generator.SamplePattern(g, generator.PatternOptions{
			Nodes: 2 + i%3, Alpha: 1.2, Seed: 1 + int64(i)*131}))
	}
	// The churn edge: absent from g, so every batch really inserts it and
	// the graph returns to g after each one.
	u, v := int32(0), int32(g.NumNodes()-1)
	for g.HasEdge(u, v) {
		v--
	}

	var (
		mu     sync.Mutex
		parent = make(map[string]string) // trace id -> client span id
	)
	traced := func(rng *rand.Rand) context.Context {
		traceID := fmt.Sprintf("%016x%016x", rng.Uint64()|1, rng.Uint64())
		spanID := fmt.Sprintf("%016x", rng.Uint64()|1)
		mu.Lock()
		parent[traceID] = spanID
		mu.Unlock()
		// Flags 00: the server's own sampling (rate 1) decides the keep.
		return WithTraceContext(ctx, "00-"+traceID+"-"+spanID+"-00")
	}

	reg, err := cl.RegisterText(traced(rand.New(rand.NewSource(0))), pats[0])
	if err != nil {
		t.Fatal(err)
	}

	const workers, opsPerWorker = 4, 40
	var matches atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(pats)-1))
			for op := 0; op < opsPerWorker; op++ {
				ctx := traced(rng)
				switch pick := rng.Intn(10); {
				case pick < 8:
					i := int(zipf.Uint64())
					mode := api.ModePlain
					if i%2 == 1 {
						mode = api.ModePlus
					}
					res, err := cl.MatchText(ctx, pats[i], api.QuerySpec{Mode: mode})
					if err != nil {
						t.Errorf("match pattern %d: %v", i, err)
						return
					}
					matches.Add(int64(len(res.Matches)))
				case pick < 9:
					if _, err := cl.Update(ctx, api.InsertEdge(u, v), api.DeleteEdge(u, v)); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				default:
					if _, err := cl.PollDelta(ctx, reg.ID); err != nil {
						t.Errorf("delta poll: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if matches.Load() == 0 {
		t.Fatal("zero matches across the run: the sampled patterns never hit")
	}

	recent, err := cl.RecentQueries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(recent) == 0 {
		t.Fatal("flight recorder holds no completed query")
	}
	for _, rec := range recent {
		if rec.Outcome == "error" {
			t.Errorf("query %s (%s) recorded outcome error: %s", rec.RequestID, rec.Kind, rec.Error)
		}
	}

	kept, err := cl.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) == 0 {
		t.Fatal("no trace kept at sample rate 1")
	}
	var staged int
	for _, sum := range kept {
		span, minted := parent[sum.TraceID]
		if !minted {
			t.Errorf("kept trace %s (%s) is not one the client minted", sum.TraceID, sum.Root)
			continue
		}
		tj, err := cl.Trace(ctx, sum.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		if tj.ParentSpanID != span {
			t.Errorf("trace %s (%s): parent span %q, want the client's %s", sum.TraceID, sum.Root, tj.ParentSpanID, span)
		}
		if tj.Root == nil || tj.Root.Name != "POST "+api.Prefix+"/match" || tj.Root.Status != "" {
			continue
		}
		have := make(map[string]bool, len(tj.Root.Children))
		for _, c := range tj.Root.Children {
			have[c.Name] = true
		}
		if have["plan.hit"] {
			continue
		}
		staged++
		for _, stage := range []string{"prepare", "filter", "eval", "merge"} {
			if !have[stage] {
				t.Errorf("match trace %s misses the %q stage span (children %v)", sum.TraceID, stage, have)
			}
		}
	}
	if staged == 0 {
		t.Error("no kept match trace ran the engine: the stage audit checked nothing")
	}
	t.Logf("%d matches; %d recent queries audited; %d kept traces, %d of them engine-run matches",
		matches.Load(), len(recent), len(kept), staged)
}
