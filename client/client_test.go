package client

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/api"
	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/live"
)

func newServer(t *testing.T, g *graph.Graph, cfg api.Config) *Client {
	t.Helper()
	st := live.NewStore(g, live.Config{Workers: 4})
	ts := httptest.NewServer(api.NewLiveServer(st, cfg))
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

func TestClientMatchForms(t *testing.T) {
	g := generator.Synthetic(300, 1.2, 10, 51)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 52})
	cl := newServer(t, g, api.Config{})
	ctx := context.Background()

	info, err := cl.Graph(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != g.NumNodes() {
		t.Fatalf("graph info %+v", info)
	}
	h, err := cl.Healthz(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz %+v, %v", h, err)
	}

	text, err := cl.MatchText(ctx, graph.FormatString(q), api.QuerySpec{Mode: api.ModePlus})
	if err != nil {
		t.Fatal(err)
	}
	structured, err := cl.MatchPattern(ctx, api.FromGraph(q), api.QuerySpec{Mode: api.ModePlus})
	if err != nil {
		t.Fatal(err)
	}
	if len(text.Matches) != len(structured.Matches) {
		t.Fatalf("text form found %d matches, structured %d", len(text.Matches), len(structured.Matches))
	}

	ranked, err := cl.TopK(ctx, api.MatchRequest{Pattern: api.FromGraph(q)}, 2, api.MetricDensity)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked.Matches) > 2 {
		t.Fatalf("top-2 returned %d", len(ranked.Matches))
	}
	for _, m := range ranked.Matches {
		if m.Score == nil {
			t.Fatal("ranked match missing score")
		}
	}

	// Streaming delivers the same distinct match set.
	var streamed int
	done, err := cl.MatchStream(ctx, api.MatchRequest{PatternText: graph.FormatString(q)},
		func(m api.SubgraphJSON) error { streamed++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if done.Matches != streamed {
		t.Fatalf("trailer says %d matches, callback saw %d", done.Matches, streamed)
	}
	plain, err := cl.MatchText(ctx, graph.FormatString(q), api.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != len(plain.Matches) {
		t.Fatalf("streamed %d, one-shot found %d", streamed, len(plain.Matches))
	}
}

func TestClientStructuredErrors(t *testing.T) {
	g := generator.Synthetic(200, 1.2, 10, 53)
	cl := newServer(t, g, api.Config{})
	ctx := context.Background()

	_, err := cl.MatchText(ctx, "", api.QuerySpec{})
	var aerr *api.Error
	if !errors.As(err, &aerr) || aerr.Code != api.CodeInvalidRequest || aerr.Status != 400 {
		t.Fatalf("missing pattern: %v", err)
	}
	_, err = cl.MatchText(ctx, "bogus directive", api.QuerySpec{})
	if !errors.As(err, &aerr) || aerr.Code != api.CodeInvalidPattern {
		t.Fatalf("malformed pattern: %v", err)
	}
	_, err = cl.TopK(ctx, api.MatchRequest{PatternText: "edge a b"}, 1, "nope")
	if !errors.As(err, &aerr) || aerr.Code != api.CodeInvalidQuery {
		t.Fatalf("bad metric: %v", err)
	}
	_, err = cl.MatchPattern(ctx, &api.PatternJSON{
		Nodes: []api.PatternNode{{ID: "a", Label: "x"}, {ID: "b", Label: "y"}},
		Edges: []api.PatternEdge{{U: "a", V: "b", Bound: "4"}},
	}, api.QuerySpec{})
	if !errors.As(err, &aerr) || aerr.Code != api.CodeUnsupportedBound {
		t.Fatalf("bounded pattern: %v", err)
	}
}

// TestClientContextDeadline proves an unset deadline_ms follows the
// context: the server observes the caller's deadline and answers 504.
func TestClientContextDeadline(t *testing.T) {
	g := generator.Synthetic(8000, 1.2, 5, 55)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 4, Alpha: 1.2, Seed: 56})
	// Server-side default far above the context deadline: only the
	// propagated deadline can cause the 504.
	cl := newServer(t, g, api.Config{DefaultTimeout: time.Minute, MaxTimeout: time.Minute})

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, err := cl.MatchText(ctx, graph.FormatString(q), api.QuerySpec{})
	if err == nil {
		t.Fatal("expected a deadline failure")
	}
	var aerr *api.Error
	if errors.As(err, &aerr) && aerr.Code != api.CodeDeadlineExceeded {
		t.Fatalf("server answered %q, want deadline_exceeded", aerr.Code)
	}
	// A transport-level context error (the client gave up first) is also
	// acceptable; either way the call must not hang.
}

// TestClientMatchStreamCancel cancels the context mid-stream and checks the
// NDJSON reader surfaces ctx.Err() promptly instead of draining the rest of
// the stream — the PR 5 satellite for SDK-side cancellation.
func TestClientMatchStreamCancel(t *testing.T) {
	// Few labels over many nodes: thousands of matches, so the stream is far
	// larger than any transport buffering and cannot complete before the
	// cancellation lands.
	g := generator.Synthetic(6000, 1.2, 4, 57)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 58})
	cl := newServer(t, g, api.Config{DefaultTimeout: time.Minute, MaxTimeout: time.Minute})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	matches := 0
	start := time.Now()
	_, err := cl.MatchStream(ctx, api.MatchRequest{PatternText: graph.FormatString(q)}, func(api.SubgraphJSON) error {
		matches++
		if matches == 1 {
			cancel()
		}
		return nil
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled stream returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream returned %v, want an error wrapping context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation surfaced after %v; want promptly", elapsed)
	}
	// The workload streams thousands of matches; a working cancel stops the
	// reader after the first plus whatever the transport had already
	// buffered, while a broken one drains the lot.
	if matches > 500 {
		t.Fatalf("reader kept consuming after cancel: %d matches delivered", matches)
	}
}

// TestClientRequestIDPlumbing: WithRequestID stamps the header, the echoed
// id comes back through WithEchoedRequestID, and failures carry it on
// *api.Error.RequestID.
func TestClientRequestIDPlumbing(t *testing.T) {
	g := generator.Synthetic(200, 1.2, 8, 71)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 72})
	cl := newServer(t, g, api.Config{})

	var echoed string
	ctx := WithEchoedRequestID(WithRequestID(context.Background(), "sdk-trace-7"), &echoed)
	if _, err := cl.MatchText(ctx, graph.FormatString(q), api.QuerySpec{}); err != nil {
		t.Fatal(err)
	}
	if echoed != "sdk-trace-7" {
		t.Fatalf("echoed id %q, want the supplied sdk-trace-7", echoed)
	}

	// Without a supplied id the server generates one; the capture still sees
	// it.
	echoed = ""
	ctx = WithEchoedRequestID(context.Background(), &echoed)
	if _, err := cl.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	if echoed == "" {
		t.Fatal("no generated request id captured")
	}

	// Failures carry the id on the structured error for log correlation.
	var aerr *api.Error
	if _, err := cl.MatchText(WithRequestID(context.Background(), "bad-call"), "", api.QuerySpec{}); !errors.As(err, &aerr) {
		t.Fatalf("expected *api.Error, got %v", err)
	}
	if aerr.RequestID != "bad-call" {
		t.Fatalf("error RequestID %q, want bad-call", aerr.RequestID)
	}
}

// TestClientDebugEndpoints drives the /v1/debug SDK surface against a
// debug-enabled server: recent/slow rings reflect completed calls under
// their request ids, and CancelQuery answers not_found for ids no longer in
// flight.
func TestClientDebugEndpoints(t *testing.T) {
	g := generator.Synthetic(300, 1.2, 8, 73)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 74})
	// A nanosecond threshold makes every completed query slow, so the slow
	// ring and the recent ring are both observable.
	cl := newServer(t, g, api.Config{EnableDebug: true, SlowQueryThreshold: time.Nanosecond})
	ctx := context.Background()

	if _, err := cl.MatchText(WithRequestID(ctx, "sdk-q1"), graph.FormatString(q), api.QuerySpec{}); err != nil {
		t.Fatal(err)
	}

	active, err := cl.ActiveQueries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(active) != 0 {
		t.Errorf("ActiveQueries after completion = %v, want empty", active)
	}
	recent, err := cl.RecentQueries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(recent) != 1 || recent[0].RequestID != "sdk-q1" || recent[0].Outcome != "ok" {
		t.Fatalf("RecentQueries = %+v, want the one ok record for sdk-q1", recent)
	}
	if recent[0].Stats == nil || recent[0].Matches == 0 {
		t.Errorf("record missing stats or matches: %+v", recent[0])
	}
	slow, err := cl.SlowQueries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(slow) != 1 || slow[0].RequestID != "sdk-q1" {
		t.Fatalf("SlowQueries = %+v, want sdk-q1", slow)
	}

	// The query finished, so cancelling its id is a structured not_found.
	var aerr *api.Error
	if err := cl.CancelQuery(ctx, "sdk-q1"); !errors.As(err, &aerr) || aerr.Code != api.CodeNotFound {
		t.Fatalf("CancelQuery of a finished id: %v, want not_found", err)
	}

	// Against a debug-off server the whole surface answers not_found.
	off := newServer(t, g, api.Config{})
	if _, err := off.RecentQueries(ctx); !errors.As(err, &aerr) || aerr.Code != api.CodeNotFound {
		t.Fatalf("RecentQueries against debug-off server: %v, want not_found", err)
	}
}

// TestClientCancelQuery cancels a long in-flight match through the SDK and
// asserts the caller observes the structured cancelled error.
func TestClientCancelQuery(t *testing.T) {
	g := generator.Synthetic(20000, 1.2, 4, 75)
	st := live.NewStore(g, live.Config{Workers: 1})
	ts := httptest.NewServer(api.NewLiveServer(st, api.Config{
		EnableDebug:    true,
		DefaultTimeout: time.Minute,
		MaxTimeout:     time.Minute,
	}))
	t.Cleanup(ts.Close)
	cl := New(ts.URL)
	ctx := context.Background()

	errc := make(chan error, 1)
	go func() {
		_, err := cl.MatchText(WithRequestID(ctx, "sdk-victim"),
			"node a l0\nnode b l1\nedge a b\nedge b a", api.QuerySpec{Radius: 8})
		errc <- err
	}()

	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("sdk-victim never appeared in ActiveQueries")
		}
		active, err := cl.ActiveQueries(ctx)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, a := range active {
			if a.RequestID == "sdk-victim" {
				found = true
			}
		}
		if found {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cl.CancelQuery(ctx, "sdk-victim"); err != nil {
		t.Fatalf("CancelQuery: %v", err)
	}
	var aerr *api.Error
	select {
	case err := <-errc:
		if !errors.As(err, &aerr) || aerr.Code != api.CodeCancelled {
			t.Fatalf("cancelled match returned %v, want code cancelled", err)
		}
		if aerr.RequestID != "sdk-victim" {
			t.Errorf("cancelled error RequestID %q, want sdk-victim", aerr.RequestID)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cancelled match did not return")
	}
}

func TestClientStandingQueries(t *testing.T) {
	b := graph.NewBuilder(nil)
	labels := []string{"A", "B", "C"}
	for i := 0; i < 6; i++ {
		b.AddNode(labels[i%3])
	}
	for i := int32(0); i < 5; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	cl := newServer(t, b.Build(), api.Config{})
	ctx := context.Background()

	reg, err := cl.RegisterText(ctx, "node a A\nnode b B\nedge a b")
	if err != nil {
		t.Fatal(err)
	}
	if reg.NumMatches != 2 {
		t.Fatalf("registered with %d matches, want 2", reg.NumMatches)
	}

	list, err := cl.StandingQueries(ctx)
	if err != nil || len(list) != 1 {
		t.Fatalf("list %v, %v", list, err)
	}

	upd, err := cl.Update(ctx, api.DeleteEdge(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if upd.Version != 1 {
		t.Fatalf("update %+v", upd)
	}

	qj, err := cl.StandingQuery(ctx, reg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if qj.NumMatches != 1 || len(qj.Matches) != 1 {
		t.Fatalf("standing query after update %+v", qj)
	}

	delta, err := cl.PollDelta(ctx, reg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Removed) != 1 || len(delta.Added) != 0 {
		t.Fatalf("delta %+v", delta)
	}

	if err := cl.UnregisterStandingQuery(ctx, reg.ID); err != nil {
		t.Fatal(err)
	}
	var aerr *api.Error
	if _, err := cl.StandingQuery(ctx, reg.ID); !errors.As(err, &aerr) || aerr.Code != api.CodeNotFound {
		t.Fatalf("unregistered query lookup: %v", err)
	}

	// Mutation errors surface with their code.
	if _, err := cl.Update(ctx, api.InsertEdge(0, 9999)); !errors.As(err, &aerr) || aerr.Code != api.CodeInvalidMutation {
		t.Fatalf("bad mutation: %v", err)
	}
}

// TestClientTracePropagation: WithTraceContext injects the traceparent onto
// the wire, the propagated trace lands in the kept ring (sampled flag forces
// the keep) under the client's trace id, and the SDK trace endpoints read it
// back as a span tree rooted at the route with the client span as remote
// parent. Failures carry the trace id on the structured error.
func TestClientTracePropagation(t *testing.T) {
	g := generator.Synthetic(200, 1.2, 8, 75)
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 3, Alpha: 1.2, Seed: 76})
	cl := newServer(t, g, api.Config{EnableDebug: true})
	ctx := context.Background()

	const (
		traceID = "0af7651916cd43dd8448eb211c80319c"
		spanID  = "b7ad6b7169203331"
	)
	tp := "00-" + traceID + "-" + spanID + "-01"
	if _, err := cl.MatchText(WithTraceContext(ctx, tp), graph.FormatString(q), api.QuerySpec{}); err != nil {
		t.Fatal(err)
	}

	kept, err := cl.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || kept[0].TraceID != traceID {
		t.Fatalf("kept traces %+v, want the propagated %s", kept, traceID)
	}
	tj, err := cl.Trace(ctx, traceID)
	if err != nil {
		t.Fatal(err)
	}
	if tj.ParentSpanID != spanID || tj.Root == nil || tj.Root.Name != "POST "+api.Prefix+"/match" {
		t.Fatalf("trace %+v, want root POST %s/match parented under %s", tj, api.Prefix, spanID)
	}

	// A failing call under the same propagation keeps its trace too, and the
	// structured error carries the trace id for the pivot.
	const errTrace = "1bf7651916cd43dd8448eb211c80319c"
	errCtx := WithTraceContext(ctx, "00-"+errTrace+"-"+spanID+"-00")
	var aerr *api.Error
	if _, err := cl.MatchText(errCtx, "", api.QuerySpec{}); !errors.As(err, &aerr) {
		t.Fatalf("expected *api.Error, got %v", err)
	}
	if aerr.TraceID != errTrace {
		t.Fatalf("error TraceID %q, want %s", aerr.TraceID, errTrace)
	}
	if _, err := cl.Trace(ctx, errTrace); err != nil {
		t.Fatalf("errored request's trace not kept: %v", err)
	}

	// Unknown trace ids answer the structured not_found.
	if _, err := cl.Trace(ctx, "ffffffffffffffffffffffffffffffff"); !errors.As(err, &aerr) || aerr.Code != api.CodeNotFound {
		t.Fatalf("unknown trace lookup: %v", err)
	}
}
