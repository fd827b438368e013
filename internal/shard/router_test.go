package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/obs"
)

// fleet is a router deployment under test: N in-process shard servers, the
// router in front, and a single-node reference server over the same graph.
type fleet struct {
	router  *Router
	rc      *client.Client // against the router
	sc      *client.Client // against the single-node reference
	shardTS [][]*httptest.Server
	// Base URLs of the router and the reference, for raw-HTTP assertions.
	routerURL, singleURL string
}

func testRetry() client.RetryPolicy {
	return client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// newShardHandler builds one empty shard's /v1 handler.
func newShardHandler(t *testing.T, cfg api.Config) http.Handler {
	t.Helper()
	g, err := graph.ParseString("", graph.NewLabels())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Role = api.RoleShard
	cfg.MaxBodyBytes = 0 // push batches need the default cap
	return api.NewLiveServer(live.NewStore(g, live.Config{Workers: 2}), cfg)
}

// newShard starts one empty in-process shard server.
func newShard(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newShardHandler(t, api.Config{}))
	t.Cleanup(ts.Close)
	return ts
}

// newFleet is newFleetCfg with the default api.Config everywhere.
func newFleet(t *testing.T, build func() *graph.Graph, k int, replicas map[int]int) *fleet {
	t.Helper()
	return newFleetCfg(t, build, k, replicas, api.Config{})
}

// newFleetCfg deploys k shards (replicas[s] servers each; default 1) plus
// the router and the reference server, both over identical copies of g built
// by build (called twice so no state is shared). Router, shards and
// reference all serve under cfg (roles and the shards' body cap aside).
func newFleetCfg(t *testing.T, build func() *graph.Graph, k int, replicas map[int]int, cfg api.Config) *fleet {
	t.Helper()
	f := &fleet{shardTS: make([][]*httptest.Server, k)}
	shards := make([][]string, k)
	for s := 0; s < k; s++ {
		n := replicas[s]
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			ts := httptest.NewServer(newShardHandler(t, cfg))
			t.Cleanup(ts.Close)
			f.shardTS[s] = append(f.shardTS[s], ts)
			shards[s] = append(shards[s], ts.URL)
		}
	}
	rt, err := NewRouter(live.NewStore(build(), live.Config{Workers: 2}), Config{
		Shards:        shards,
		ShardTimeout:  5 * time.Second,
		Retry:         testRetry(),
		ProbeInterval: time.Hour, // probes run only when tests call probeOnce
		API:           cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Push(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.router = rt
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	f.rc, f.routerURL = client.New(rts.URL), rts.URL

	single := httptest.NewServer(api.NewLiveServer(live.NewStore(build(), live.Config{Workers: 2}), cfg))
	t.Cleanup(single.Close)
	f.sc, f.singleURL = client.New(single.URL), single.URL
	return f
}

func testPatterns(g *graph.Graph) []string {
	var pats []string
	for i := 0; i < 6; i++ {
		q := generator.SamplePattern(g, generator.PatternOptions{
			Nodes: 2 + i%2, Alpha: 1.1, Seed: int64(100 + i*131),
		})
		pats = append(pats, graph.FormatString(q))
	}
	return pats
}

func matchesJSON(t *testing.T, ms []api.SubgraphJSON) string {
	t.Helper()
	b, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertIdentical fans the same request to router and reference and
// requires byte-identical serialized match lists — and, under no limit,
// identical stats, planned or not: a result-cache hit serves the stats of the
// run it cached. Under a limit each deployment counts the work it did before
// stopping.
func (f *fleet) assertIdentical(t *testing.T, pat string, spec api.QuerySpec, label string) int {
	t.Helper()
	ctx := context.Background()
	got, err := f.rc.MatchText(ctx, pat, spec)
	if err != nil {
		t.Fatalf("%s: router match: %v", label, err)
	}
	want, err := f.sc.MatchText(ctx, pat, spec)
	if err != nil {
		t.Fatalf("%s: single-node match: %v", label, err)
	}
	if got.Partial != nil {
		t.Fatalf("%s: healthy fleet answered partial: %+v", label, got.Partial)
	}
	gj, wj := matchesJSON(t, got.Matches), matchesJSON(t, want.Matches)
	if gj != wj {
		t.Fatalf("%s: router diverges from single node\nrouter: %s\nsingle: %s", label, gj, wj)
	}
	if spec.Limit == 0 && got.Stats != want.Stats {
		t.Fatalf("%s: router stats %+v, single node %+v", label, got.Stats, want.Stats)
	}
	return len(want.Matches)
}

func buildSynthetic(n int, seed int64) func() *graph.Graph {
	return func() *graph.Graph { return generator.Synthetic(n, 1.2, 5, seed) }
}

func TestRouterByteIdenticalMatches(t *testing.T) {
	f := newFleet(t, buildSynthetic(80, 11), 3, nil)
	g := generator.Synthetic(80, 1.2, 5, 11)
	total := 0
	for i, pat := range testPatterns(g) {
		for _, mode := range []string{api.ModePlain, api.ModePlus} {
			total += f.assertIdentical(t, pat, api.QuerySpec{Mode: mode},
				mode+" pattern "+pat)
			// Any explicit radius must agree too, and with no_plan the
			// stats as well: the slices split the work, they do not repeat
			// it.
			for _, r := range []int{0, 1, 3} {
				f.assertIdentical(t, pat, api.QuerySpec{Mode: mode, Radius: r, NoPlan: true},
					fmt.Sprintf("%s r=%d no_plan pattern %s", mode, r, pat))
			}
		}
		// A limit keeps the first matches by smallest producing center on
		// both deployments, and top_k ranks what the limit kept.
		for _, mode := range []string{api.ModePlain, api.ModePlus} {
			for _, spec := range []api.QuerySpec{
				{Mode: mode, Limit: 2}, {Mode: mode, TopK: 3}, {Mode: mode, Limit: 2, TopK: 3},
				{Mode: mode, Limit: 2, NoPlan: true},
			} {
				f.assertIdentical(t, pat, spec, fmt.Sprintf("%s limit=%d top_k=%d pattern %d",
					mode, spec.Limit, spec.TopK, i))
			}
		}
	}
	if total == 0 {
		t.Fatal("sampled patterns never matched; the identity check was vacuous")
	}
}

// TestRouterKeepsMatchesOfTruncatedHaloCenters pins a merge that once lost
// matches: with Halo hops of replication, shard 0 (owner of 5) holds center
// 2 with a truncated ball — node 6 missing — which yields center 5's
// subgraph {0,1,2,4,5}. The shard dedups that subgraph onto 2, the router
// drops it because shard 0 does not own 2, and 2's owner finds
// {0,1,2,4,5,6} for it: the router answered 5 matches, the single node 7.
func TestRouterKeepsMatchesOfTruncatedHaloCenters(t *testing.T) {
	const data = `node n0 A
node n1 A
node n2 A
node n3 A
node n4 A
node n5 A
node n6 A
node n7 A
edge n0 n5
edge n2 n1
edge n3 n7
edge n5 n2
edge n5 n4
edge n6 n1
edge n6 n6
edge n6 n7
`
	build := func() *graph.Graph {
		g, err := graph.ParseString(data, graph.NewLabels())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	f := newFleet(t, build, 4, nil)
	const pat = "node n0 A\nnode n1 A\nnode n2 A\nedge n1 n0\nedge n2 n0\n"
	for _, mode := range []string{api.ModePlain, api.ModePlus} {
		if f.assertIdentical(t, pat, api.QuerySpec{Mode: mode}, mode) != 7 {
			t.Fatalf("%s: the single node no longer answers the 7 matches this case was built on", mode)
		}
	}
}

func TestRouterMatchesAfterUpdates(t *testing.T) {
	f := newFleet(t, buildSynthetic(60, 7), 3, nil)
	g := generator.Synthetic(60, 1.2, 5, 7)
	pats := testPatterns(g)
	ctx := context.Background()

	batches := [][]api.MutationJSON{
		// Edge churn across likely shard boundaries.
		{api.InsertEdge(0, 59), api.InsertEdge(59, 30), api.DeleteEdge(0, 59)},
		// New nodes, wired in.
		{api.AddNode("l0"), api.AddNode("l1"), api.InsertEdge(60, 61), api.InsertEdge(5, 60)},
		// Relabels.
		{api.SetLabel(10, "l0"), api.SetLabel(11, "l4")},
		// Deletion: a node dies on every replica.
		{api.DeleteNode(30)},
	}

	for bi, batch := range batches {
		rres, err := f.rc.Update(ctx, batch...)
		if err != nil {
			t.Fatalf("batch %d via router: %v", bi, err)
		}
		if _, err := f.sc.Update(ctx, batch...); err != nil {
			t.Fatalf("batch %d via single node: %v", bi, err)
		}
		if rres.Version != uint64(bi+1) {
			t.Fatalf("router at version %d after %d batches", rres.Version, bi+1)
		}
		if len(rres.ShardVersions) != 3 {
			t.Fatalf("router reported shard versions for %d shards", len(rres.ShardVersions))
		}
		for s, v := range rres.ShardVersions {
			if v != rres.ShardVersions[0] {
				t.Fatalf("shard %d expected at version %d, shard 0 at %d: every replica takes every batch", s, v, rres.ShardVersions[0])
			}
		}
		for _, pat := range pats {
			for _, mode := range []string{api.ModePlain, api.ModePlus} {
				f.assertIdentical(t, pat, api.QuerySpec{Mode: mode},
					mode+" after batch "+pat)
				f.assertIdentical(t, pat, api.QuerySpec{Mode: mode, NoPlan: true},
					mode+" no_plan after batch "+pat)
			}
		}
	}
	// Pattern naming the new label wiring must agree too.
	f.assertIdentical(t, "node a l0\nnode b l1\nedge a b", api.QuerySpec{Mode: api.ModePlus}, "new nodes")

	// No replica went stale: the whole fleet serves at the router's vector.
	h, err := f.rc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Role != api.RoleRouter {
		t.Fatalf("router health %q role %q after updates", h.Status, h.Role)
	}
	for _, sh := range h.Shards {
		if sh.Serving != sh.Replicas {
			t.Fatalf("shard %d: %d/%d replicas serving after updates", sh.Shard, sh.Serving, sh.Replicas)
		}
	}
}

// TestRouterHaloExceeded pins that the router serves every radius: a 3-node
// path (diameter 2) on a 2-shard fleet once drew halo_exceeded from a router
// that replicated one hop. Replicas hold the whole graph, so the pattern is
// served at its diameter and beyond, identically to a single node.
func TestRouterHaloExceeded(t *testing.T) {
	f := newFleet(t, buildSynthetic(40, 3), 2, nil)
	pat := "node a l0\nnode b l1\nnode c l2\nedge a b\nedge b c"
	for _, r := range []int{0, 1, 2, 4} {
		f.assertIdentical(t, pat, api.QuerySpec{Mode: api.ModePlus, Radius: r, NoPlan: true},
			fmt.Sprintf("path r=%d", r))
	}
}

func TestRouterPartialResults(t *testing.T) {
	const k = 3
	f := newFleet(t, buildSynthetic(60, 5), k, nil)
	g := generator.Synthetic(60, 1.2, 5, 5)
	pat := testPatterns(g)[0]
	ctx := context.Background()

	const dead = 1
	f.shardTS[dead][0].Close()

	// Without allow_partial: a structured 502, never a silent subset.
	_, err := f.rc.MatchText(ctx, pat, api.QuerySpec{Mode: api.ModePlus})
	var aerr *api.Error
	if !errors.As(err, &aerr) || aerr.Code != api.CodeShardUnavailable {
		t.Fatalf("want %s with a dead shard, got %v", api.CodeShardUnavailable, err)
	}

	// With allow_partial: 200, the partial marker names the dead shard, and
	// every returned match is a match the full deployment would return.
	got, err := f.rc.MatchText(ctx, pat, api.QuerySpec{Mode: api.ModePlus, AllowPartial: true})
	if err != nil {
		t.Fatalf("allow_partial must serve: %v", err)
	}
	if got.Partial == nil || len(got.Partial.FailedShards) != 1 || got.Partial.FailedShards[0] != dead {
		t.Fatalf("partial marker = %+v, want failed shard [%d]", got.Partial, dead)
	}
	if got.Partial.MissingNodes != 20 {
		t.Fatalf("missing_nodes %d; the dead shard's slice holds 20 of 60 nodes", got.Partial.MissingNodes)
	}
	full, err := f.sc.MatchText(ctx, pat, api.QuerySpec{Mode: api.ModePlus})
	if err != nil {
		t.Fatal(err)
	}
	fullSet := make(map[string]bool, len(full.Matches))
	for i := range full.Matches {
		b, _ := json.Marshal(full.Matches[i])
		fullSet[string(b)] = true
	}
	for i := range got.Matches {
		if got.Matches[i].Center%k == dead {
			t.Fatalf("dead shard's center %d in a partial result", got.Matches[i].Center)
		}
	}
	// Every surviving center the single node reports must still be present.
	for i := range full.Matches {
		if full.Matches[i].Center%k != dead {
			b, _ := json.Marshal(full.Matches[i])
			found := false
			for j := range got.Matches {
				gb, _ := json.Marshal(got.Matches[j])
				if string(gb) == string(b) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("surviving center %d missing from partial result", full.Matches[i].Center)
			}
		}
	}

	// The probe loop observes the dead shard; health degrades.
	f.router.probeOnce(ctx)
	h, err := f.rc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Fatalf("health %q with a dead shard, want degraded", h.Status)
	}
	if h.Shards[dead].Serving != 0 {
		t.Fatalf("dead shard reports %d serving replicas", h.Shards[dead].Serving)
	}
}

func TestRouterReplicaFailover(t *testing.T) {
	f := newFleet(t, buildSynthetic(50, 9), 2, map[int]int{0: 2})
	g := generator.Synthetic(50, 1.2, 5, 9)
	pat := testPatterns(g)[0]

	// Kill replica 0 of shard 0: the fan-out falls over to replica 1 and
	// results stay byte-identical.
	f.shardTS[0][0].Close()
	f.assertIdentical(t, pat, api.QuerySpec{Mode: api.ModePlus}, "failover")

	f.router.probeOnce(context.Background())
	h, err := f.rc.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Shards[0].Serving != 1 || h.Shards[0].Replicas != 2 {
		t.Fatalf("shard 0 health %+v, want 1/2 serving", h.Shards[0])
	}
	if h.Status != "ok" {
		t.Fatalf("one live replica per shard still serves; health %q", h.Status)
	}
}

// TestRouterStreamMatchesSingleNode: a router streams the single node's
// lines in the single node's order, ascending center, with and without a
// limit.
func TestRouterStreamMatchesSingleNode(t *testing.T) {
	f := newFleet(t, buildSynthetic(70, 13), 3, nil)
	g := generator.Synthetic(70, 1.2, 5, 13)
	ctx := context.Background()
	stream := func(cl *client.Client, req api.MatchRequest) []string {
		t.Helper()
		var lines []string
		done, err := cl.MatchStream(ctx, req, func(sj api.SubgraphJSON) error {
			b, _ := json.Marshal(sj)
			lines = append(lines, string(b))
			return nil
		})
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		if done.Code != "" || done.Partial != nil || done.Matches != len(lines) {
			t.Fatalf("healthy stream ended %q partial=%+v after %d of %d matches",
				done.Code, done.Partial, len(lines), done.Matches)
		}
		return lines
	}
	streamed := 0
	for _, pat := range testPatterns(g) {
		for _, spec := range []api.QuerySpec{{Mode: api.ModePlus}, {Mode: api.ModePlain}, {Mode: api.ModePlus, Limit: 2}} {
			req := api.MatchRequest{PatternText: pat, Query: spec}
			got, want := stream(f.rc, req), stream(f.sc, req)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s limit=%d: router stream diverges from single node\nrouter: %v\nsingle: %v",
					spec.Mode, spec.Limit, got, want)
			}
			streamed += len(got)
		}
	}
	if streamed == 0 {
		t.Fatal("no pattern streamed a match; the comparison was vacuous")
	}
}

func TestRouterStandingQueries(t *testing.T) {
	f := newFleet(t, buildSynthetic(40, 17), 2, nil)
	ctx := context.Background()
	pat := "node a l0\nnode b l1\nedge a b"

	// Standing queries live on the router's authoritative store and see
	// exactly the single-node semantics.
	qj, err := f.rc.RegisterText(ctx, pat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.rc.Update(ctx, api.AddNode("l0"), api.AddNode("l1"), api.InsertEdge(40, 41)); err != nil {
		t.Fatal(err)
	}
	delta, err := f.rc.PollDelta(ctx, qj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Version != 1 {
		t.Fatalf("standing query maintained to version %d, want 1", delta.Version)
	}
	// The new edge must match over the router too, identically to a fresh
	// single node that saw the same update.
	if _, err := f.sc.Update(ctx, api.AddNode("l0"), api.AddNode("l1"), api.InsertEdge(40, 41)); err != nil {
		t.Fatal(err)
	}
	n := f.assertIdentical(t, pat, api.QuerySpec{Mode: api.ModePlus}, "standing pattern")
	if n == 0 {
		t.Fatal("inserted l0->l1 edge must match")
	}
}

// TestRouterUpdateSurvivesCallerCancellation pins the high-severity failure
// mode: the authoritative store applies the batch first, so a client that
// disconnects (its request context cancelled) before the shard fan-out
// completes must not cancel the deliveries — that would eject every touched
// replica as terminally stale on one dropped connection.
func TestRouterUpdateSurvivesCallerCancellation(t *testing.T) {
	f := newFleet(t, buildSynthetic(50, 19), 3, nil)
	ctx := context.Background()

	body, err := json.Marshal(api.UpdateRequest{Updates: []api.MutationJSON{
		api.AddNode("l0"), api.AddNode("l1"), api.InsertEdge(50, 51),
	}})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", api.Prefix+"/update", bytes.NewReader(body))
	cctx, cancel := context.WithCancel(ctx)
	cancel() // the caller is gone before the fan-out even starts
	req = req.WithContext(cctx)
	w := httptest.NewRecorder()
	f.router.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("update with a cancelled caller context: status %d, body %s", w.Code, w.Body)
	}

	// Every replica received the batch and stays admitted.
	f.router.probeOnce(ctx)
	h, err := f.rc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health %q after a cancelled-caller update, want ok", h.Status)
	}
	for _, sh := range h.Shards {
		if sh.Serving != sh.Replicas {
			t.Fatalf("shard %d: %d/%d serving after a cancelled-caller update", sh.Shard, sh.Serving, sh.Replicas)
		}
	}
	// And the fleet still answers byte-identically to a single node that
	// applied the same batch.
	if _, err := f.sc.Update(ctx, api.AddNode("l0"), api.AddNode("l1"), api.InsertEdge(50, 51)); err != nil {
		t.Fatal(err)
	}
	n := f.assertIdentical(t, "node a l0\nnode b l1\nedge a b",
		api.QuerySpec{Mode: api.ModePlus}, "after cancelled-caller update")
	if n == 0 {
		t.Fatal("inserted l0->l1 edge must match")
	}
}

// TestRouterCallerDeadlineKeepsReplicasAdmitted pins that a match fan-out
// torn down by the caller's own deadline is no verdict on the replicas:
// they stay admitted, so the next update does not terminally eject them.
func TestRouterCallerDeadlineKeepsReplicasAdmitted(t *testing.T) {
	f := newFleet(t, buildSynthetic(40, 23), 2, map[int]int{0: 2, 1: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for s := range f.router.shards {
		if err := f.router.callShard(ctx, s, "match", obs.Span{},
			func(cctx context.Context, cl *client.Client) error {
				_, err := cl.Healthz(cctx)
				return err
			}); err == nil {
			t.Fatalf("shard %d: fan-out under a cancelled caller context must fail", s)
		}
	}
	for s, reps := range f.router.shards {
		for ri, rep := range reps {
			if !rep.available() {
				t.Fatalf("shard %d replica %d ejected by the caller's own cancellation (%s)", s, ri, rep.note)
			}
		}
	}
	// The fleet still serves, and an update keeps every replica admitted.
	if _, err := f.rc.Update(context.Background(), api.AddNode("l0")); err != nil {
		t.Fatal(err)
	}
	h, err := f.rc.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range h.Shards {
		if sh.Serving != sh.Replicas {
			t.Fatalf("shard %d: %d/%d serving after update", sh.Shard, sh.Serving, sh.Replicas)
		}
	}
}

// dropProxy forwards to a real shard, but while drop is set it swallows
// /v1/update responses after the shard applied the batch — the connection
// failure a flaky network produces at the worst possible moment.
func dropProxy(t *testing.T, backend string, drop *atomic.Bool) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			t.Error(err)
			return
		}
		out, err := http.NewRequestWithContext(req.Context(), req.Method,
			backend+req.URL.Path, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		out.Header = req.Header.Clone()
		resp, err := http.DefaultClient.Do(out)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		rb, _ := io.ReadAll(resp.Body)
		if drop.Load() && strings.HasSuffix(req.URL.Path, "/update") {
			panic(http.ErrAbortHandler) // applied, but the caller never hears back
		}
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(rb)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// relProxy forwards to a real shard, but answers every /v1/match with each
// subgraph's rel replaced by rel.
func relProxy(t *testing.T, backend, rel string) *httptest.Server {
	t.Helper()
	relField := regexp.MustCompile(`"rel":\{[^}]*\}`)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		out, err := http.NewRequestWithContext(req.Context(), req.Method, backend+req.URL.Path, req.Body)
		if err != nil {
			t.Error(err)
			return
		}
		out.Header = req.Header.Clone()
		resp, err := http.DefaultClient.Do(out)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		rb, _ := io.ReadAll(resp.Body)
		if req.URL.Path == "/v1/match" {
			rb = relField.ReplaceAll(rb, []byte(`"rel":`+rel))
		}
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(rb)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterFailsReplicaOnMalformedRel: a replica whose match answer holds
// a rel key that is not a pattern node index, or a rel of fewer rows than
// the pattern has nodes, fails as a dead one does. The router answers from
// the next replica, and with none left answers shard_unavailable, or
// partial under allow_partial; it never merges a subgraph with a relation
// row missing.
func TestRouterFailsReplicaOnMalformedRel(t *testing.T) {
	build := buildSynthetic(60, 5)
	pat := testPatterns(build())[0] // two pattern nodes
	ctx := context.Background()
	router := func(replicas ...string) *client.Client {
		rt, err := NewRouter(live.NewStore(build(), live.Config{Workers: 2}), Config{
			Shards:        [][]string{replicas},
			ShardTimeout:  5 * time.Second,
			Retry:         testRetry(),
			ProbeInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Push(ctx); err != nil {
			t.Fatal(err)
		}
		rts := httptest.NewServer(rt.Handler())
		t.Cleanup(rts.Close)
		return client.New(rts.URL)
	}
	single := httptest.NewServer(api.NewLiveServer(live.NewStore(build(), live.Config{Workers: 2}), api.Config{}))
	t.Cleanup(single.Close)
	for _, spec := range []api.QuerySpec{{Mode: api.ModePlus}, {Mode: api.ModePlus, TopK: 3}} {
		want, err := client.New(single.URL).MatchText(ctx, pat, spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Matches) == 0 {
			t.Fatal("the pattern has no match; a malformed rel would go unseen")
		}
		for _, rel := range []string{`{"x":[1]}`, `{"0":[1]}`} {
			got, err := router(relProxy(t, newShard(t).URL, rel).URL, newShard(t).URL).MatchText(ctx, pat, spec)
			if err != nil {
				t.Fatalf("rel %s, top_k %d: the second replica must serve: %v", rel, spec.TopK, err)
			}
			if g, w := matchesJSON(t, got.Matches), matchesJSON(t, want.Matches); g != w {
				t.Fatalf("rel %s, top_k %d: router answered\n%s\nsingle node\n%s", rel, spec.TopK, g, w)
			}

			rc := router(relProxy(t, newShard(t).URL, rel).URL)
			_, err = rc.MatchText(ctx, pat, spec)
			var aerr *api.Error
			if !errors.As(err, &aerr) || aerr.Code != api.CodeShardUnavailable {
				t.Fatalf("rel %s, top_k %d: want %s from the malformed replica alone, got %v",
					rel, spec.TopK, api.CodeShardUnavailable, err)
			}
			partial := spec
			partial.AllowPartial = true
			part, err := rc.MatchText(ctx, pat, partial)
			if err != nil {
				t.Fatalf("rel %s, top_k %d: allow_partial must serve: %v", rel, spec.TopK, err)
			}
			if part.Partial == nil || len(part.Matches) != 0 {
				t.Fatalf("rel %s, top_k %d: want an empty partial answer, got %d matches, partial %+v",
					rel, spec.TopK, len(part.Matches), part.Partial)
			}
		}
	}
}

// TestRouterUpdateDropAfterApplyNotStale pins two behaviors at once: the
// update fan-out must not retry at the client level (a replayed batch
// double-applies and the replica lands at want+1), and a delivery whose
// response is lost after the shard applied the batch must be resolved by
// asking the replica its actual version — not by terminal ejection.
func TestRouterUpdateDropAfterApplyNotStale(t *testing.T) {
	g := generator.Synthetic(30, 1.2, 4, 21)
	shardTS := newShard(t)
	var drop atomic.Bool
	proxy := dropProxy(t, shardTS.URL, &drop)
	rt, err := NewRouter(live.NewStore(g, live.Config{Workers: 2}), Config{
		Shards:        [][]string{{proxy.URL}},
		ShardTimeout:  5 * time.Second,
		Retry:         testRetry(),
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rt.Push(ctx); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	rc := client.New(rts.URL)

	drop.Store(true)
	if _, err := rc.Update(ctx, api.AddNode("l0")); err != nil {
		t.Fatalf("router update: %v", err)
	}
	drop.Store(false)

	rep := rt.shards[0][0]
	if rep.isStale() {
		t.Fatalf("replica terminally ejected after a drop-after-apply delivery: %s", rep.note)
	}
	if !rep.available() {
		t.Fatalf("replica held out after a verified delivery: %s", rep.note)
	}
	// The shard applied the batch exactly once: a second update advances the
	// expected version in lockstep and the probe agrees.
	res, err := rc.Update(ctx, api.AddNode("l1"))
	if err != nil {
		t.Fatal(err)
	}
	rt.probeOnce(ctx)
	if !rep.available() {
		t.Fatalf("probe ejected the replica after clean deliveries: %s", rep.note)
	}
	h, err := rc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Shards[0].Version != res.ShardVersions[0] {
		t.Fatalf("router expects %d, response says %d", h.Shards[0].Version, res.ShardVersions[0])
	}
}

// TestRouterRejectsReservedLabels pins that the router's verdict on a
// reserved label is the single node's: live.TombstoneLabel is refused with
// invalid_mutation by both, before anything applies, and a label merely
// carrying a NUL is accepted by both and matched alike.
func TestRouterRejectsReservedLabels(t *testing.T) {
	f := newFleet(t, buildSynthetic(30, 27), 2, nil)
	ctx := context.Background()
	for _, muts := range [][]api.MutationJSON{
		{api.AddNode(live.TombstoneLabel)},
		{api.SetLabel(0, live.TombstoneLabel)},
		{api.AddNode("ok"), api.SetLabel(1, live.TombstoneLabel)},
	} {
		for name, cl := range map[string]*client.Client{"router": f.rc, "single node": f.sc} {
			_, err := cl.Update(ctx, muts...)
			var aerr *api.Error
			if !errors.As(err, &aerr) || aerr.Code != api.CodeInvalidMutation {
				t.Fatalf("%s: tombstone label %+v must be rejected with %s, got %v", name, muts, api.CodeInvalidMutation, err)
			}
		}
	}
	// The rejections happened before the authoritative store applied anything.
	h, err := f.rc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 0 {
		t.Fatalf("rejected batches bumped the store to version %d", h.Version)
	}
	nul := []api.MutationJSON{api.AddNode("a\x00b"), api.SetLabel(0, "a\x00b"), api.InsertEdge(0, 30)}
	for name, cl := range map[string]*client.Client{"router": f.rc, "single node": f.sc} {
		if _, err := cl.Update(ctx, nul...); err != nil {
			t.Fatalf("%s: a NUL-carrying label must be accepted like any other: %v", name, err)
		}
	}
	f.assertIdentical(t, "node a l1\nnode b l2\nedge a b", api.QuerySpec{NoPlan: true}, "after NUL labels")
}

func TestRouterRejectsUnderflowedPlans(t *testing.T) {
	g := generator.Synthetic(20, 1.2, 3, 1)
	plan, err := BuildPlan(g, 2, 1, StrategyBFS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter(live.NewStore(g, live.Config{}), Config{
		Plan:   plan,
		Shards: [][]string{{"http://s0"}}, // plan says 2
	}); err == nil {
		t.Fatal("shard-count mismatch must be rejected")
	}
	if _, err := NewRouter(live.NewStore(g, live.Config{}), Config{
		Plan:   plan,
		Shards: [][]string{{"http://s0"}, {}},
	}); err == nil {
		t.Fatal("replica-less shard must be rejected")
	}
}

// rawPost sends body verbatim and returns the status and the decoded error
// envelope (zero on 2xx).
func rawPost(t *testing.T, url, requestID string, body []byte) (int, api.Error) {
	t.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set(api.RequestIDHeader, requestID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var aerr api.Error
	if resp.StatusCode >= 400 {
		if err := json.Unmarshal(raw, &aerr); err != nil || aerr.Code == "" {
			t.Fatalf("POST %s: status %d with an unstructured body %q", url, resp.StatusCode, raw)
		}
	}
	return resp.StatusCode, aerr
}

// TestRouterErrorParity pins that the HTTP contract has one owner: the same
// malformed request answers the same status, code and message whether a
// single node or the router serves it, on every endpoint that fans out. The
// only router-specific verdict is a client-set slice. The halo and NUL-label
// cases once drew router-only refusals; both deployments now serve them.
func TestRouterErrorParity(t *testing.T) {
	f := newFleetCfg(t, buildSynthetic(40, 31), 2, nil, api.Config{MaxBodyBytes: 2048})
	const edge = `"pattern_text":"node a l0\nnode b l1\nedge a b"`
	const disconnected = `"pattern_text":"node a l0\nnode b l1"`
	const path3 = `"pattern_text":"node a l0\nnode b l1\nnode c l2\nedge a b\nedge b c"`
	cases := []struct {
		name, path, body string
		status           int
		code             string
		routerOnly       bool // the single node serves it; only the router refuses
	}{
		{"missing pattern", "/match", `{}`, 400, api.CodeInvalidRequest, false},
		{"both pattern forms", "/match",
			`{"pattern":{"nodes":[{"label":"l0"}]},"pattern_text":"node a l0"}`, 400, api.CodeInvalidRequest, false},
		{"unknown mode", "/match", `{` + edge + `,"query":{"mode":"nope"}}`, 400, api.CodeInvalidQuery, false},
		{"unknown mode on stream", "/match/stream", `{` + edge + `,"query":{"mode":"nope"}}`, 400, api.CodeInvalidQuery, false},
		{"top_k on stream", "/match/stream", `{` + edge + `,"query":{"top_k":2}}`, 400, api.CodeInvalidQuery, false},
		{"top_k on stream, no pattern", "/match/stream", `{"query":{"top_k":2}}`, 400, api.CodeInvalidRequest, false},
		{"disconnected pattern", "/match", `{` + disconnected + `}`, 400, api.CodeInvalidPattern, false},
		{"disconnected pattern on stream", "/match/stream", `{` + disconnected + `}`, 400, api.CodeInvalidPattern, false},
		{"oversized body", "/match", `{"pattern_text":"` + strings.Repeat("# pad\\n", 400) + `"}`, 413, api.CodeBodyTooLarge, false},
		{"unknown update field", "/update", `{"updates":[{"op":"add_node","lable":"l0"}]}`, 400, api.CodeInvalidRequest, false},
		{"mutation missing its target", "/update", `{"updates":[{"op":"delete_node"}]}`, 400, api.CodeInvalidMutation, false},
		{"invalid slice", "/match", `{` + edge + `,"query":{"slice":{"index":2,"of":2}}}`, 400, api.CodeInvalidQuery, false},
		{"client-set slice", "/match", `{` + edge + `,"query":{"slice":{"index":0,"of":2}}}`, 400, api.CodeInvalidQuery, true},
		{"client-set slice on stream", "/match/stream", `{` + edge + `,"query":{"slice":{"index":1,"of":2}}}`, 400, api.CodeInvalidQuery, true},
		{"halo exceeded", "/match", `{` + path3 + `}`, 200, "", false},
		{"halo exceeded on stream", "/match/stream", `{` + path3 + `}`, 200, "", false},
		{"tombstone label", "/update", `{"updates":[{"op":"add_node","label":"\u0000deleted node"}]}`, 400, api.CodeInvalidMutation, false},
		{"NUL label", "/update", `{"updates":[{"op":"add_node","label":"a\u0000b"}]}`, 200, "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs, re := rawPost(t, f.routerURL+api.Prefix+tc.path, "", []byte(tc.body))
			if rs != tc.status || re.Code != tc.code {
				t.Fatalf("router: status %d code %q (%s), want %d %q", rs, re.Code, re.Message, tc.status, tc.code)
			}
			ss, se := rawPost(t, f.singleURL+api.Prefix+tc.path, "", []byte(tc.body))
			if tc.routerOnly {
				if ss != http.StatusOK {
					t.Fatalf("single node: status %d (%s), want 200", ss, se.Message)
				}
				return
			}
			if ss != rs || se.Code != re.Code || se.Message != re.Message {
				t.Fatalf("deployments disagree:\nrouter: %d %s %q\nsingle: %d %s %q",
					rs, re.Code, re.Message, ss, se.Code, se.Message)
			}
		})
	}
}

// getJSON decodes a GET response body into out and returns the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestRouterFlightRecordsFanout pins that a fan-out match passes through
// the same middleware as a single-node one: it lands in the router's
// /v1/debug/queries/recent as kind "match" with its match count, under the
// trace id the shards recorded their share of the work under, and the access
// log line carries bytes, matches and (for a stream) the outcome.
func TestRouterFlightRecordsFanout(t *testing.T) {
	var logBuf syncBuffer
	f := newFleetCfg(t, buildSynthetic(60, 37), 2, nil, api.Config{
		EnableDebug: true,
		AccessLog:   slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	pat := testPatterns(generator.Synthetic(60, 1.2, 5, 37))[0]
	body, err := json.Marshal(api.MatchRequest{PatternText: pat, Query: api.QuerySpec{Mode: api.ModePlus}})
	if err != nil {
		t.Fatal(err)
	}
	if status, aerr := rawPost(t, f.routerURL+api.Prefix+"/match", "fanout-1", body); status != http.StatusOK {
		t.Fatalf("router match: %d %s", status, aerr.Message)
	}
	want, err := f.sc.MatchText(context.Background(), pat, api.QuerySpec{Mode: api.ModePlus})
	if err != nil {
		t.Fatal(err)
	}

	recent := func(base string) []api.QueryRecordJSON {
		var recs []api.QueryRecordJSON
		if status := getJSON(t, base+api.Prefix+"/debug/queries/recent", &recs); status != http.StatusOK {
			t.Fatalf("%s recent ring: status %d", base, status)
		}
		return recs
	}
	var rec *api.QueryRecordJSON
	for _, r := range recent(f.routerURL) {
		if r.RequestID == "fanout-1" {
			rec = &r
		}
	}
	if rec == nil {
		t.Fatal("fan-out match missing from the router's /v1/debug/queries/recent")
	}
	if rec.Kind != "match" || rec.Outcome != "ok" || rec.Matches != len(want.Matches) {
		t.Fatalf("router record %+v, want kind match, outcome ok, %d matches", rec, len(want.Matches))
	}
	if len(rec.TraceID) != 32 {
		t.Fatalf("router record trace id %q, want 32 hex digits", rec.TraceID)
	}
	// Each shard ran its share of the query under the router's trace.
	for s, reps := range f.shardTS {
		seen := false
		for _, r := range recent(reps[0].URL) {
			seen = seen || r.TraceID == rec.TraceID
		}
		if !seen {
			t.Fatalf("shard %d recorded no query under the router's trace %s", s, rec.TraceID)
		}
	}

	// The router's access-log lines are the ones under the client's request
	// ids (fan-out calls travel under ids of their own). A stream's line
	// also says how it ended.
	if status, aerr := rawPost(t, f.routerURL+api.Prefix+"/match/stream", "fanout-2", body); status != http.StatusOK {
		t.Fatalf("router stream: %d %s", status, aerr.Message)
	}
	for id, outcome := range map[string]string{"fanout-1": "", "fanout-2": "ok"} {
		found := false
		for _, raw := range strings.Split(logBuf.String(), "\n") {
			var line struct {
				Bytes   int64  `json:"bytes"`
				Matches *int   `json:"matches"`
				Outcome string `json:"outcome"`
				ID      string `json:"request_id"`
			}
			if json.Unmarshal([]byte(raw), &line) != nil || line.ID != id {
				continue
			}
			found = true
			if line.Bytes == 0 || line.Matches == nil || *line.Matches != len(want.Matches) || line.Outcome != outcome {
				t.Fatalf("router access-log line for %s: %s, want bytes, %d matches, outcome %q",
					id, raw, len(want.Matches), outcome)
			}
		}
		if !found {
			t.Fatalf("no router access-log line for %s:\n%s", id, logBuf.String())
		}
	}
}

// syncBuffer is a bytes.Buffer safe for the concurrent writers of a shared
// access log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRouterDebugCancelStopsFanout pins that the flight recorder sees a
// fan-out in flight and that DELETE /v1/debug/queries/{request_id} tears it
// down: the shard call's context ends and the caller gets 408 cancelled.
func TestRouterDebugCancelStopsFanout(t *testing.T) {
	g := generator.Synthetic(30, 1.2, 4, 41)
	// One shard whose /v1/match blocks until its request context ends.
	inner := newShardHandler(t, api.Config{})
	entered := make(chan struct{})
	released := make(chan struct{})
	var once sync.Once
	shardTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != api.Prefix+"/match" {
			inner.ServeHTTP(w, req)
			return
		}
		// The server notices a departed client only once the body is read.
		_, _ = io.Copy(io.Discard, req.Body)
		once.Do(func() { close(entered) })
		<-req.Context().Done()
		close(released)
	}))
	t.Cleanup(shardTS.Close)
	rt, err := NewRouter(live.NewStore(g, live.Config{Workers: 2}), Config{
		Shards:        [][]string{{shardTS.URL}},
		ShardTimeout:  time.Minute,
		Retry:         testRetry(),
		ProbeInterval: time.Hour,
		API:           api.Config{EnableDebug: true, DefaultTimeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Push(context.Background()); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	type result struct {
		status int
		aerr   api.Error
	}
	resultc := make(chan result, 1)
	go func() { // off the test goroutine: report failure as a status, never t.Fatal
		req, err := http.NewRequest("POST", rts.URL+api.Prefix+"/match",
			strings.NewReader(`{"pattern_text":"node a l0\nnode b l1\nedge a b"}`))
		if err != nil {
			resultc <- result{status: -1}
			return
		}
		req.Header.Set(api.RequestIDHeader, "cancel-me")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			resultc <- result{status: -1}
			return
		}
		defer resp.Body.Close()
		res := result{status: resp.StatusCode}
		_ = json.NewDecoder(resp.Body).Decode(&res.aerr) // a non-error body fails the code check below
		resultc <- res
	}()
	select {
	case <-entered:
	case <-time.After(15 * time.Second):
		t.Fatal("fan-out never reached the shard")
	}

	var active []api.ActiveQueryJSON
	if status := getJSON(t, rts.URL+api.Prefix+"/debug/queries", &active); status != http.StatusOK {
		t.Fatalf("active table: status %d", status)
	}
	if len(active) != 1 || active[0].RequestID != "cancel-me" || active[0].Kind != "match" {
		t.Fatalf("in-flight table %+v, want the one fan-out match", active)
	}
	del, err := http.NewRequest("DELETE", rts.URL+api.Prefix+"/debug/queries/cancel-me", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE in-flight fan-out: status %d, want 204", resp.StatusCode)
	}

	select {
	case res := <-resultc:
		if res.status != http.StatusRequestTimeout || res.aerr.Code != api.CodeCancelled {
			t.Fatalf("cancelled fan-out answered %d %q (%s), want 408 cancelled",
				res.status, res.aerr.Code, res.aerr.Message)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cancelled fan-out did not return")
	}
	select {
	case <-released:
	case <-time.After(15 * time.Second):
		t.Fatal("the shard call's context never ended")
	}
	// The caller's cancellation is no verdict on the replica.
	if !rt.shards[0][0].available() {
		t.Fatalf("replica ejected by an admin cancel: %s", rt.shards[0][0].note)
	}
}
