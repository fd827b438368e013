// Server demonstrates the /v1 HTTP workflow end to end without external
// setup: it mounts the versioned api handler on a loopback listener
// (exactly what cmd/strongsimd serves), then drives it through the typed
// client SDK — inspecting the graph, posting a structured-pattern match, a
// ranked match and a streaming match, and showing machine-readable error
// handling. No hand-rolled HTTP: every request goes through package client.
//
// Run with: go run ./examples/server
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/generator"
	"repro/internal/live"
)

func main() {
	log.SetFlags(0)

	// Server side: a synthetic data graph behind the /v1 handler.
	g := generator.Synthetic(3000, 1.2, 20, 7)
	st := live.NewStore(g, live.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go func() {
		_ = http.Serve(ln, api.NewLiveServer(st, api.Config{}))
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("strongsimd-style server listening on %s\n\n", base)

	// Client side: the SDK against the loopback server.
	cl := client.New(base)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	info, err := cl.Graph(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GET /v1/graph -> %d nodes, %d edges, %d labels, %d workers\n\n",
		info.Nodes, info.Edges, info.Labels, info.Workers)

	// A pattern sampled from the data graph, shipped as the structured
	// /v1 schema rather than a text blob.
	q := generator.SamplePattern(g, generator.PatternOptions{Nodes: 4, Alpha: 1.2, Seed: 11})
	pattern := api.FromGraph(q)
	fmt.Printf("pattern (%d nodes, %d edges):\n", len(pattern.Nodes), len(pattern.Edges))
	for i, n := range pattern.Nodes {
		fmt.Printf("  node %s label=%s (rel key %q)\n", n.ID, n.Label, fmt.Sprint(i))
	}
	for _, e := range pattern.Edges {
		fmt.Printf("  edge %s -> %s\n", e.U, e.V)
	}
	fmt.Println()

	// Match+ over the structured pattern.
	res, err := cl.MatchPattern(ctx, pattern, api.QuerySpec{Mode: api.ModePlus})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("POST /v1/match (plus) -> %d perfect subgraphs in %.2fms (balls examined %d, skipped %d)\n",
		len(res.Matches), res.ElapsedMS, res.Stats.BallsExamined, res.Stats.BallsSkipped)
	for i, m := range res.Matches {
		if i == 3 {
			fmt.Printf("  ... and %d more\n", len(res.Matches)-i)
			break
		}
		fmt.Printf("  center=%d |V|=%d |E|=%d\n", m.Center, len(m.Nodes), len(m.Edges))
	}

	// Top-2 by compactness, with a tight per-request deadline.
	ranked, err := cl.TopK(ctx, api.MatchRequest{
		Pattern: pattern,
		Query:   api.QuerySpec{Mode: api.ModePlus, DeadlineMS: 2000},
	}, 2, api.MetricCompactness)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("POST /v1/match (top_k=2, compactness) -> %d ranked matches in %.2fms\n",
		len(ranked.Matches), ranked.ElapsedMS)
	for _, m := range ranked.Matches {
		fmt.Printf("  score=%.3f center=%d |V|=%d\n", *m.Score, m.Center, len(m.Nodes))
	}

	// The same query as a stream: matches arrive as balls complete.
	first := 0
	done, err := cl.MatchStream(ctx, api.MatchRequest{Pattern: pattern, Query: api.QuerySpec{Mode: api.ModePlus}},
		func(m api.SubgraphJSON) error {
			if first < 3 {
				fmt.Printf("  streamed center=%d |V|=%d\n", m.Center, len(m.Nodes))
			}
			first++
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("POST /v1/match/stream -> %d matches streamed in %.2fms\n\n", done.Matches, done.ElapsedMS)

	// Failures carry machine-readable codes the client decodes for you.
	_, err = cl.TopK(ctx, api.MatchRequest{Pattern: pattern}, 2, "bogus-metric")
	var aerr *api.Error
	if errors.As(err, &aerr) {
		fmt.Printf("bad metric -> code=%q http=%d: %s\n", aerr.Code, aerr.Status, aerr.Message)
	}
}
