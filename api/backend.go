package api

import (
	"context"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/obs"
)

// Backend is the seam between the /v1 HTTP contract and evaluation. The
// handlers of this package own everything a client can observe about a
// request — decoding, validation order, the deadline clamp, the debug
// recorder, encoding — and hand the resolved request to a
// Backend, which owns only how it is evaluated. There are two: the single
// node (local, below) and the scatter/gather tier (shard.Router).
//
// A Backend may refuse a request with an *Error (a router's shard_unavailable,
// or a shard's own 4xx); it is answered as is. Any other
// error is mapped like an engine failure: deadline, cancellation, or a
// pattern the engine rejects.
type Backend interface {
	// Match evaluates q and returns its final matches — deduplicated,
	// canonically ordered, limited or ranked as q asks — with Stats and,
	// on a degraded fan-out, Partial. The handler fills the rest.
	Match(ctx context.Context, q *Query) (MatchResponse, error)
	// Stream evaluates q handing each match to emit, which reports whether
	// to keep going, in ascending order of the match's center: the first
	// limit of them are exactly the matches Match keeps under that limit.
	// The returned response carries Stats and Partial only, and is
	// meaningful even beside an error (the trailer reports both).
	// An *Error before the first emit is still an ordinary HTTP error.
	Stream(ctx context.Context, q *Query, emit func(*core.PerfectSubgraph) bool) (MatchResponse, error)
	// Update applies one validated batch atomically. root is the request's
	// root span (zero when untraced). Errors other than *Error answer
	// invalid_mutation.
	Update(ctx context.Context, muts []live.Mutation, root obs.Span) (UpdateResponse, error)
	// Health amends the node-level health summary the handler assembled
	// with what only the backend knows (a router's per-shard rows and its
	// degraded status).
	Health(h *HealthJSON)
}

// Query is a match request after validation: what a Backend evaluates.
type Query struct {
	// Request is the decoded wire form — what a fan-out backend forwards.
	Request MatchRequest
	// Engine is the engine the request was resolved against, once, up
	// front: evaluating on it gives the whole request one graph version.
	Engine *engine.Engine
	// Pattern is the pattern graph, label-compatible with Engine's
	// snapshot and known to be connected.
	Pattern *graph.Graph
	// Opts is the compiled spec with the planner (unless no_plan) and the
	// query's observation record installed — its Root parents any fan-out
	// span; Metric ranks top_k queries.
	Opts   engine.QueryOptions
	Metric core.Metric
}

// local is the single-node Backend: the resolved engine evaluates, the live
// store (nil on read-only deployments, which mount no update route) applies.
type local struct{ store *live.Store }

func (local) Match(ctx context.Context, q *Query) (MatchResponse, error) {
	res, err := q.Engine.Match(ctx, q.Pattern, q.Opts)
	if err != nil {
		return MatchResponse{}, err
	}
	resp := MatchResponse{Stats: FromStats(res.Stats)}
	if k := q.Request.Query.TopK; k > 0 {
		tr := q.Opts.Trace
		tr.Begin(obs.StageMerge)
		resp.Matches = FromRanked(res.TopK(q.Pattern, q.Engine.Snapshot().Graph(), k, q.Metric))
		tr.End("")
	} else {
		resp.Matches = FromSubgraphs(res.Subgraphs)
	}
	return resp, nil
}

func (local) Stream(ctx context.Context, q *Query, emit func(*core.PerfectSubgraph) bool) (MatchResponse, error) {
	stats, err := q.Engine.Each(ctx, q.Pattern, q.Opts, emit)
	return MatchResponse{Stats: FromStats(stats)}, err
}

func (b local) Update(_ context.Context, muts []live.Mutation, root obs.Span) (UpdateResponse, error) {
	// Under the request's root span, the store records one live.apply child
	// plus a live.maintain child per standing query brought current; the
	// untraced path hands in a zero Span and records nothing.
	res, err := b.store.ApplyTraced(muts, root)
	if err != nil {
		return UpdateResponse{}, err
	}
	return UpdateResponse{
		Version:    res.Version,
		Nodes:      res.Nodes,
		Edges:      res.Edges,
		AddedNodes: res.AddedNodes,
		Recomputed: res.Recomputed,
	}, nil
}

// Health adds nothing: a single node has no fleet to report.
func (local) Health(*HealthJSON) {}
