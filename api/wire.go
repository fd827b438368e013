package api

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// MatchRequest is the JSON body of POST /v1/match and /v1/match/stream.
// Exactly one of Pattern and PatternText must be set.
type MatchRequest struct {
	// Pattern is the structured pattern.
	Pattern *PatternJSON `json:"pattern,omitempty"`
	// PatternText is the pattern in the text format of internal/graph.
	PatternText string `json:"pattern_text,omitempty"`
	// Query holds every option; the zero value is a plain unranked query.
	Query QuerySpec `json:"query,omitempty"`
}

// MatchResponse is the JSON body answering POST /v1/match. QueryStats is
// present exactly when the request set "stats": true. Partial is present
// only on router deployments and only when the request set
// "allow_partial": true and at least one shard was unavailable — the matches
// are then complete except for centers in the failed shards' slices.
type MatchResponse struct {
	Matches    []SubgraphJSON  `json:"matches"`
	Stats      StatsJSON       `json:"stats"`
	QueryStats *QueryStatsJSON `json:"query_stats,omitempty"`
	Partial    *PartialJSON    `json:"partial,omitempty"`
	ElapsedMS  float64         `json:"elapsed_ms"`
}

// PartialJSON marks a degraded scatter/gather response: the shards that
// could not be reached (after every replica and retry was exhausted) and how
// many data nodes — potential ball centers — lie in those shards' slices. Responses
// missing results are never silent: either this marker is present or the
// request failed with CodeShardUnavailable.
type PartialJSON struct {
	FailedShards []int `json:"failed_shards"`
	MissingNodes int   `json:"missing_nodes"`
}

// SubgraphJSON serializes one perfect subgraph with its match relation.
type SubgraphJSON struct {
	Center int32      `json:"center"`
	Score  *float64   `json:"score,omitempty"`
	Nodes  []int32    `json:"nodes"`
	Edges  [][2]int32 `json:"edges"`
	Rel    Rel        `json:"rel"`
}

// Rel is a subgraph's match relation: Rel[u] holds the matches of pattern
// node u, in the submitted pattern's node order. On the wire it is an object
// keyed "0" to "n-1" (codec.go); no other key set decodes.
type Rel [][]int32

// StatsJSON serializes core.Stats.
type StatsJSON struct {
	BallsExamined int `json:"balls_examined"`
	BallsSkipped  int `json:"balls_skipped"`
	PairsRemoved  int `json:"pairs_removed"`
	Duplicates    int `json:"duplicates"`
	MinimizedFrom int `json:"minimized_from,omitempty"`
}

// StreamEventJSON is one NDJSON line of POST /v1/match/stream: either a
// match or the final done trailer, never both.
type StreamEventJSON struct {
	Match *SubgraphJSON   `json:"match,omitempty"`
	Done  *StreamDoneJSON `json:"done,omitempty"`
}

// StreamDoneJSON is the last line of a match stream. A query that failed
// after streaming began (deadline, cancellation) reports its error here,
// since the HTTP status is already committed. QueryStats is present exactly
// when the request set "stats": true.
type StreamDoneJSON struct {
	Matches    int             `json:"matches"`
	Stats      StatsJSON       `json:"stats"`
	QueryStats *QueryStatsJSON `json:"query_stats,omitempty"`
	Partial    *PartialJSON    `json:"partial,omitempty"`
	ElapsedMS  float64         `json:"elapsed_ms"`
	Code       string          `json:"code,omitempty"`
	Error      string          `json:"error,omitempty"`
}

// GraphInfoJSON answers GET /v1/graph.
type GraphInfoJSON struct {
	Name    string `json:"name"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Labels  int    `json:"labels"`
	Workers int    `json:"workers"`
}

// Deployment roles reported in HealthJSON.Role.
const (
	RoleStandalone = "standalone"
	RoleShard      = "shard"
	RoleRouter     = "router"
)

// HealthJSON answers GET /v1/healthz. Version and Queries stay 0 on
// read-only deployments. ModuleVersion is "(devel)" outside a released
// module build. NodeID and Role identify the fleet member answering:
// NodeID is stable for the process lifetime (operator-assigned or generated
// at startup), Role is one of the Role* constants. Shards is present only
// on routers: one summary per shard of the fan-out tier.
type HealthJSON struct {
	Status        string            `json:"status"`
	NodeID        string            `json:"node_id,omitempty"`
	Role          string            `json:"role,omitempty"`
	Version       uint64            `json:"version"`
	Nodes         int               `json:"nodes"`
	Edges         int               `json:"edges"`
	Labels        int               `json:"labels"`
	Queries       int               `json:"queries"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	GoVersion     string            `json:"go_version"`
	ModuleVersion string            `json:"module_version,omitempty"`
	Workers       int               `json:"workers"`
	Shards        []ShardHealthJSON `json:"shards,omitempty"`
}

// ShardHealthJSON summarizes one shard of a router deployment: how many
// replicas it has, how many currently serve (healthy and at the expected
// version), and the version the router expects the shard to be at.
type ShardHealthJSON struct {
	Shard    int    `json:"shard"`
	Replicas int    `json:"replicas"`
	Serving  int    `json:"serving"`
	Version  uint64 `json:"version"`
}

// Mutation op names, mirroring internal/live.
const (
	OpAddNode    = "add_node"
	OpInsertEdge = "insert_edge"
	OpDeleteEdge = "delete_edge"
	OpDeleteNode = "delete_node"
	OpSetLabel   = "set_label"
)

// MutationJSON is one element of an update batch. Which fields matter
// depends on Op: add_node reads Label; insert_edge and delete_edge read U
// and V; delete_node reads Node; set_label reads Node and Label. Fields are
// pointers so the handler can tell an explicit 0 from an omitted field —
// every destructive op must name its target, or a misspelled field would
// silently target node 0. Build mutations with AddNode, InsertEdge,
// DeleteEdge, DeleteNode and SetLabel.
type MutationJSON struct {
	Op    string  `json:"op"`
	Label *string `json:"label,omitempty"`
	U     *int32  `json:"u,omitempty"`
	V     *int32  `json:"v,omitempty"`
	Node  *int32  `json:"node,omitempty"`
}

// AddNode builds an add_node mutation.
func AddNode(label string) MutationJSON {
	return MutationJSON{Op: OpAddNode, Label: &label}
}

// InsertEdge builds an insert_edge mutation.
func InsertEdge(u, v int32) MutationJSON {
	return MutationJSON{Op: OpInsertEdge, U: &u, V: &v}
}

// DeleteEdge builds a delete_edge mutation.
func DeleteEdge(u, v int32) MutationJSON {
	return MutationJSON{Op: OpDeleteEdge, U: &u, V: &v}
}

// DeleteNode builds a delete_node mutation.
func DeleteNode(node int32) MutationJSON {
	return MutationJSON{Op: OpDeleteNode, Node: &node}
}

// SetLabel builds a set_label mutation: the node keeps its id and edges but
// changes label.
func SetLabel(node int32, label string) MutationJSON {
	return MutationJSON{Op: OpSetLabel, Node: &node, Label: &label}
}

// UpdateRequest is the JSON body of POST /v1/update.
type UpdateRequest struct {
	Updates []MutationJSON `json:"updates"`
}

// UpdateResponse answers POST /v1/update. Recomputed maps standing-query
// ids (serialized as decimal strings, as encoding/json renders integer
// keys) to the balls re-evaluated maintaining them. ShardVersions is
// present only on router deployments: the version the router now expects
// each shard to be at after forwarding the batch, keyed by shard index
// (every replica takes every batch, so the values are equal).
type UpdateResponse struct {
	Version       uint64         `json:"version"`
	Nodes         int            `json:"nodes"`
	Edges         int            `json:"edges"`
	AddedNodes    []int32        `json:"added_nodes,omitempty"`
	Recomputed    map[int64]int  `json:"recomputed,omitempty"`
	ShardVersions map[int]uint64 `json:"shard_versions,omitempty"`
	ElapsedMS     float64        `json:"elapsed_ms"`
}

// RegisterRequest is the JSON body of POST /v1/queries. Exactly one of
// Pattern and PatternText must be set.
type RegisterRequest struct {
	Pattern     *PatternJSON `json:"pattern,omitempty"`
	PatternText string       `json:"pattern_text,omitempty"`
}

// QueryJSON describes one standing query. Matches is populated by
// GET /v1/queries/{id} and omitted from listings. Pattern is the stored
// source in the text format, whichever form the query was registered in.
type QueryJSON struct {
	ID         int64          `json:"id"`
	Pattern    string         `json:"pattern,omitempty"`
	Radius     int            `json:"radius"`
	Version    uint64         `json:"version"`
	NumMatches int            `json:"num_matches"`
	Matches    []SubgraphJSON `json:"matches,omitempty"`
}

// DeltaJSON answers GET /v1/queries/{id}/delta: the change to the result
// set in the most recent maintenance step (from_version -> version).
type DeltaJSON struct {
	ID          int64          `json:"id"`
	FromVersion uint64         `json:"from_version"`
	Version     uint64         `json:"version"`
	Added       []SubgraphJSON `json:"added"`
	Removed     []SubgraphJSON `json:"removed"`
}

// FromSubgraph serializes one perfect subgraph in the wire form shared by
// match responses, standing-query results and deltas.
func FromSubgraph(ps *core.PerfectSubgraph) SubgraphJSON {
	return SubgraphJSON{Center: ps.Center, Nodes: ps.Nodes, Edges: ps.Edges, Rel: ps.Rel}
}

// FromSubgraphs serializes a subgraph slice, never as JSON null.
func FromSubgraphs(pss []*core.PerfectSubgraph) []SubgraphJSON {
	out := make([]SubgraphJSON, 0, len(pss))
	for _, ps := range pss {
		out = append(out, FromSubgraph(ps))
	}
	return out
}

// FromRanked serializes a top-k result, each match with its score.
func FromRanked(ranked []core.Ranked) []SubgraphJSON {
	out := make([]SubgraphJSON, 0, len(ranked))
	for _, rk := range ranked {
		sj := FromSubgraph(rk.PerfectSubgraph)
		score := rk.Score
		sj.Score = &score
		out = append(out, sj)
	}
	return out
}

// QueryStatsJSON is the per-query stage trace answering a request with
// "stats": true — where the query's time went (prepare = parse, validation
// and Match+ minimization; filter = candidate filtering; eval = per-center
// ball evaluation, dedup and relation expansion; merge = ordering, the
// result-cache store and top_k ranking) and how much graph it touched.
type QueryStatsJSON struct {
	CandidateCenters int     `json:"candidate_centers"`
	BallsBuilt       int     `json:"balls_built"`
	BallNodes        int64   `json:"ball_nodes"`
	BallEdges        int64   `json:"ball_edges"`
	PrepareMS        float64 `json:"prepare_ms"`
	FilterMS         float64 `json:"filter_ms"`
	EvalMS           float64 `json:"eval_ms"`
	MergeMS          float64 `json:"merge_ms"`
	// PlanCache is the result-cache outcome of an unlimited match: "hit"
	// (an exact repeat) or "miss". It is absent when the cache was not
	// consulted ("no_plan": true, a limit or a stream).
	PlanCache string `json:"plan_cache,omitempty"`
}

// FromQueryStats serializes a query record's flat statistics.
func FromQueryStats(qs *obs.Stats) *QueryStatsJSON {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return &QueryStatsJSON{
		CandidateCenters: qs.CandidateCenters,
		BallsBuilt:       int(qs.BallsBuilt),
		BallNodes:        qs.BallNodes,
		BallEdges:        qs.BallEdges,
		PrepareMS:        ms(qs.Prepare),
		FilterMS:         ms(qs.Filter),
		EvalMS:           ms(qs.Eval),
		MergeMS:          ms(qs.Merge),
		PlanCache:        qs.PlanCacheOutcome,
	}
}

// FromStats serializes query statistics.
func FromStats(st core.Stats) StatsJSON {
	return StatsJSON{
		BallsExamined: st.BallsExamined,
		BallsSkipped:  st.BallsSkipped,
		PairsRemoved:  st.PairsRemoved,
		Duplicates:    st.Duplicates,
		MinimizedFrom: st.MinimizedFrom,
	}
}
