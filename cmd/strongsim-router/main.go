// Strongsim-router serves the full /v1 protocol over a fleet of plain
// strongsimd shards. It loads the data graph, pushes every shard a full copy
// over ordinary /v1/update batches, and then scatter/gathers: /v1/match
// fans out to every shard, shard i of k evaluating only the candidate
// centers v with v mod k = i, and merges the results byte-identically to a
// single node, /v1/update applies to the router's authoritative store and
// forwards the same mutations to every shard, and every other route (graph
// introspection, standing queries, metrics, debug) is answered from the
// authoritative store. The HTTP surface is package api's one /v1 route
// tree — the same validation, middleware and debug endpoints a single
// strongsimd serves.
//
//	strongsim-router -data graph.g -shards http://s0:8372,http://s1:8372
//	strongsim-router -data graph.g \
//	    -shards 'http://s0a:8372|http://s0b:8372,http://s1:8372'
//
// The -shards list is comma-separated per shard; replicas of one shard are
// separated by '|' and tried in order. When a shard loses every replica,
// matches fail with 502 shard_unavailable unless the request sets
// query.allow_partial, in which case the response carries a "partial"
// marker naming the failed shards and the number of nodes in their center
// slices. See API.md, "Sharded serving".
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("strongsim-router: ")
	var (
		dataPath   = flag.String("data", "", "data graph file (required)")
		addr       = flag.String("addr", ":8373", "listen address")
		shardsSpec = flag.String("shards", "", "comma-separated shard base URLs; '|'-separated replicas per shard (required)")
		pushChunk  = flag.Int("push-chunk", 25000, "mutations per initial-push batch")
		shardTO    = flag.Duration("shard-timeout", 10*time.Second, "per-shard fan-out deadline")
		retries    = flag.Int("retries", 3, "total attempts per replica request (incl. the first)")
		retryBase  = flag.Duration("retry-base", 50*time.Millisecond, "backoff before the first retry; doubles each further retry")
		probeEvery = flag.Duration("probe-interval", 5*time.Second, "shard health-probe period")
		workers    = flag.Int("workers", 0, "ball-evaluation workers for locally answered queries (0 = GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTimeout = flag.Duration("max-timeout", time.Minute, "largest deadline a request may ask for")
		maxBody    = flag.Int64("max-body", 8<<20, "request body cap in bytes")
		quiet      = flag.Bool("quiet", false, "disable per-request access logs")
		debugOn    = flag.Bool("debug", false, "mount /v1/debug introspection; fan-out spans join each request's trace")
		slowQuery  = flag.Duration("slow-query", time.Second, "latency at or above which completed queries are recorded as slow (with -debug)")
		traceRate  = flag.Float64("trace-sample", 0, "head-sampling probability [0,1] for keeping fast successful request traces (with -debug)")
		nodeID     = flag.String("node-id", "", "stable node identifier reported in healthz (default: generated at startup)")
	)
	flag.Parse()
	if *dataPath == "" || *shardsSpec == "" {
		flag.Usage()
		os.Exit(2)
	}
	shards := parseShards(*shardsSpec)
	if len(shards) == 0 {
		log.Fatal("-shards lists no shards")
	}

	f, err := os.Open(*dataPath)
	if err != nil {
		log.Fatal(err)
	}
	g, err := graph.Parse(f, graph.NewLabels())
	f.Close()
	if err != nil {
		log.Fatalf("%s: %v", *dataPath, err)
	}
	log.Printf("loaded %v", g)

	var accessLog *slog.Logger
	if !*quiet {
		accessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	store := live.NewStore(g, live.Config{Workers: *workers})
	rt, err := shard.NewRouter(store, shard.Config{
		Shards:        shards,
		ShardTimeout:  *shardTO,
		Retry:         client.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryBase},
		PushChunk:     *pushChunk,
		ProbeInterval: *probeEvery,
		API: api.Config{
			NodeID:             *nodeID,
			DefaultTimeout:     *timeout,
			MaxTimeout:         *maxTimeout,
			MaxBodyBytes:       *maxBody,
			AccessLog:          accessLog,
			EnableDebug:        *debugOn,
			SlowQueryThreshold: *slowQuery,
			TraceSampleRate:    *traceRate,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	log.Printf("pushing the graph to %d shards (chunk %d)", len(shards), *pushChunk)
	if err := rt.Push(ctx); err != nil {
		log.Fatalf("push: %v", err)
	}
	log.Printf("pushed %d shards in %v", len(shards), time.Since(start))
	rt.StartProbes(ctx)
	defer rt.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("routing %s on %s over %d shards", api.Prefix, *addr, len(shards))
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		log.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
}

// parseShards splits "u0a|u0b,u1,u2" into per-shard replica URL lists.
func parseShards(spec string) [][]string {
	var shards [][]string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var reps []string
		for _, rep := range strings.Split(part, "|") {
			if rep = strings.TrimSpace(rep); rep != "" {
				reps = append(reps, strings.TrimRight(rep, "/"))
			}
		}
		if len(reps) > 0 {
			shards = append(shards, reps)
		}
	}
	return shards
}
