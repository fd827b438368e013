// Strongsimd serves strong-simulation pattern matching over HTTP/JSON,
// against a graph that can change while it serves. It loads one data graph
// (text format of internal/graph) at startup as version 0 of a mutable
// live store and serves the versioned /v1 protocol of package api:
// concurrent one-shot and streaming matches against the latest published
// version, batched mutations, and incrementally maintained standing
// queries.
//
//	strongsimd -data graph.g                          # serve on :8372
//	strongsimd -data graph.g -addr :9000 -workers 8
//
//	curl -s localhost:8372/v1/match -d '{
//	    "pattern_text": "edge a b", "query": {"mode": "plus"}}'
//	curl -s localhost:8372/v1/queries -d '{
//	    "pattern": {"nodes": [{"id": "a", "label": "HR"},
//	                          {"id": "b", "label": "SE"}],
//	                "edges": [{"u": "a", "v": "b"}]}}'
//	curl -s localhost:8372/v1/update -d '{
//	    "updates": [{"op": "insert_edge", "u": 3, "v": 9}]}'
//	curl -s localhost:8372/v1/queries/0
//
// Endpoints: GET /v1/healthz, GET /v1/graph, GET /v1/metrics (Prometheus
// text exposition), POST /v1/match, POST /v1/match/stream, POST /v1/update,
// POST/GET /v1/queries, GET/DELETE /v1/queries/{id},
// GET /v1/queries/{id}/delta, /v1/debug/queries (in-flight introspection,
// recent/slow rings, admin cancellation) and /v1/debug/traces (kept request
// traces as span trees; tail sampling keeps slow and errored requests, plus
// a -trace-sample fraction of the rest) behind -debug, and /debug/pprof
// behind -pprof. Requests propagate W3C traceparent both directions. See
// API.md for every schema and error code, and package client for the Go
// SDK.
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
	"syscall"
	"time"

	"repro/api"
	"repro/internal/graph"
	"repro/internal/live"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("strongsimd: ")
	var (
		dataPath   = flag.String("data", "", "data graph file (required unless -role shard)")
		addr       = flag.String("addr", ":8372", "listen address")
		role       = flag.String("role", api.RoleStandalone, "deployment role reported in healthz: standalone or shard (shards start empty and are pushed their subgraph by strongsim-router)")
		nodeID     = flag.String("node-id", "", "stable node identifier reported in healthz (default: generated at startup)")
		workers    = flag.Int("workers", 0, "ball-evaluation workers per query (0 = GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTimeout = flag.Duration("max-timeout", time.Minute, "largest deadline a request may ask for")
		maxBody    = flag.Int64("max-body", 8<<20, "request body cap in bytes")
		quiet      = flag.Bool("quiet", false, "disable per-request access logs")
		pprofOn    = flag.Bool("pprof", false, "mount /debug/pprof (operator listeners only)")
		debugOn    = flag.Bool("debug", false, "mount /v1/debug query introspection and cancellation (operator listeners only)")
		slowQuery  = flag.Duration("slow-query", time.Second, "latency at or above which completed queries are recorded as slow (with -debug)")
		traceRate  = flag.Float64("trace-sample", 0, "head-sampling probability [0,1] for keeping fast successful request traces; slow and errored traces are kept regardless (with -debug)")
	)
	flag.Parse()
	if *role != api.RoleStandalone && *role != api.RoleShard {
		log.Fatalf("-role %q: want %q or %q", *role, api.RoleStandalone, api.RoleShard)
	}
	// A shard may (and normally does) start empty: the router pushes its
	// halo-extended subgraph over /v1/update before serving traffic.
	if *dataPath == "" && *role != api.RoleShard {
		flag.Usage()
		os.Exit(2)
	}

	var g *graph.Graph
	if *dataPath == "" {
		g, _ = graph.ParseString("", graph.NewLabels())
		log.Printf("starting empty (role %s)", *role)
	} else {
		f, err := os.Open(*dataPath)
		if err != nil {
			log.Fatal(err)
		}
		g, err = graph.Parse(f, graph.NewLabels())
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", *dataPath, err)
		}
		log.Printf("loaded %v", g)
	}

	store := live.NewStore(g, live.Config{Workers: *workers})

	// One structured JSON line per request on stderr: method, path, status,
	// bytes, duration, request id, plus handler annotations (match counts,
	// how a stream ended). Panics surface here with their stack.
	var accessLog *slog.Logger
	if !*quiet {
		accessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv := &http.Server{
		Addr: *addr,
		Handler: api.NewLiveServer(store, api.Config{
			NodeID:             *nodeID,
			Role:               *role,
			DefaultTimeout:     *timeout,
			MaxTimeout:         *maxTimeout,
			MaxBodyBytes:       *maxBody,
			AccessLog:          accessLog,
			EnablePprof:        *pprofOn,
			EnableDebug:        *debugOn,
			SlowQueryThreshold: *slowQuery,
			TraceSampleRate:    *traceRate,
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("serving %s on %s (workers=%d)", api.Prefix, *addr, store.Engine().Workers())
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
