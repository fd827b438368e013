// Package api is the versioned wire protocol of the strong-simulation
// serving stack: the JSON types every endpoint speaks, the structured
// pattern schema (PatternJSON), the unified query options (QuerySpec), the
// machine-readable error envelope (Error), and the HTTP handlers serving
// them under /v1.
//
// The package is the only owner of the HTTP contract. One route tree
// serves every deployment shape; the constructors differ only in what
// evaluates a resolved request (the Backend seam, backend.go):
//
//	NewLiveServer(store, cfg)            a single node over a live store
//	NewFleetServer(store, backend, cfg)  the same tree in front of a shard fleet
//
// Both mount the same /v1 endpoints (match, match/stream, graph, healthz,
// metrics, update and queries) over a live store, which owns the node's
// state. The handlers
// decode, validate in one fixed order, clamp the deadline, register the
// query with the debug recorder, and encode; the Backend only
// evaluates. Every route runs through one middleware (metrics.go):
// request ids accepted or generated and echoed as
// X-Request-Id, per-endpoint counters and latency histograms in the
// process-wide internal/obs registry (rendered by GET /v1/metrics), panic
// recovery into a structured 500, and an optional structured access log
// (Config.AccessLog). QuerySpec's "stats" flag opts one query into a
// per-stage trace returned as query_stats. Config.EnableDebug builds one
// obs.Recorder and mounts the /v1/debug group over it — the in-flight query
// table with live stage and progress, admin cancellation by request id, and
// the recent, slow and trace views of one ring of the last 256 finished
// requests. See API.md at the repository root for the
// endpoint reference, and package client for the typed Go SDK.
package api

// Version is the current wire-protocol version; every versioned route is
// mounted under "/" + Version.
const Version = "v1"

// Prefix is the path prefix of the versioned route tree.
const Prefix = "/" + Version
