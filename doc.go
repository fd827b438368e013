// Package repro is a from-scratch Go reproduction of Ma, Cao, Fan, Huai,
// Wo: "Capturing Topology in Graph Pattern Matching", PVLDB 5(4):310-321,
// 2011 — graph pattern matching via strong simulation.
//
// Strong simulation (Q ≺LD G) revises graph simulation with two conditions
// that recover the topology of the pattern in its matches: duality (parent
// relationships are preserved, not just child relationships) and locality
// (every match lives inside a ball whose radius is the pattern diameter).
// The result keeps the cubic-time complexity of simulation extensions while
// matching 70-80% of what subgraph isomorphism finds, returning at most |V|
// matches of bounded diameter, and supporting distributed evaluation with
// bounded data shipment.
//
// Layout:
//
//   - api: the versioned /v1 wire protocol — the structured pattern schema
//     (PatternJSON), the unified QuerySpec, structured {code, error}
//     failures, and the one HTTP route tree every deployment serves, with
//     evaluation behind the Backend seam: a single node's engine/store or
//     the shard router (see API.md)
//   - client: the typed Go SDK for /v1 — Match, MatchStream, TopK, Update,
//     RegisterStandingQuery, PollDelta — with context deadlines and
//     structured-error decoding
//   - internal/graph: node-labeled digraph substrate (balls, components,
//     cycles, diameters, text format)
//   - internal/simulation: graph and dual simulation, match graphs, the
//     HHK-style refinement engine
//   - internal/core: the paper's contribution — Match (Fig. 3), minQ
//     (Fig. 4), dualFilter (Fig. 5), connectivity pruning, Match+, ranking
//   - internal/exec: the one ball-evaluation worker pool — generic
//     Run/RunOrdered over a position space with pluggable center sources,
//     ball providers, evaluators and sinks, context cancellation,
//     early exit, and a per-worker scratch arena (ball buffers + dual
//     simulation state, reset between centers) so the hot path does not
//     allocate per ball; core, engine (and live through it), approx and
//     distributed all schedule through it
//   - internal/engine: the serving layer — prepared snapshots (frozen
//     labels, version), a concurrent query engine that runs every query
//     behind the global dual-simulation filter, with worker-pool ball
//     evaluation, context cancellation, streaming and top-k early
//     termination
//   - internal/live: the dynamic-graph layer — a mutable versioned store
//     (copy-on-write views, atomic update batches, tombstoned deletions)
//     with incrementally maintained standing queries, served over HTTP by
//     cmd/strongsimd
//   - internal/isomorphism: VF2 baseline
//   - internal/approx: TALE and MCS baselines
//   - internal/generator: synthetic (n, n^α, l) workloads, Amazon-like and
//     YouTube-like dataset stand-ins, pattern sampling
//   - internal/distributed: Section 4.3 partitioned evaluation with
//     byte-counted traffic
//   - internal/experiments: drivers regenerating every table and figure,
//     listed once in Artifacts
//   - examples/, cmd/: runnable entry points — cmd/strongsim (one-shot
//     CLI), cmd/strongsimd (HTTP/JSON matching server), cmd/experiments,
//     cmd/gengraph
//
// # Serving quickstart
//
// Generate a workload, start the server, and query it through the /v1
// protocol with the typed client SDK:
//
//	go run ./cmd/gengraph -dataset synthetic -n 10000 -o data.g
//	go run ./cmd/strongsimd -data data.g -addr :8372
//
//	cl := client.New("http://localhost:8372")
//	res, err := cl.MatchPattern(ctx, &api.PatternJSON{
//	    Nodes: []api.PatternNode{{ID: "a", Label: "HR"}, {ID: "b", Label: "SE"}},
//	    Edges: []api.PatternEdge{{U: "a", V: "b"}, {U: "b", V: "a"}},
//	}, api.QuerySpec{Mode: api.ModePlus, TopK: 3})
//
// POST /v1/match accepts the structured pattern schema (or the text format
// via pattern_text) with every option in one QuerySpec, and returns the
// perfect subgraphs as JSON; POST /v1/match/stream delivers them as NDJSON
// while balls complete; GET /v1/graph describes the loaded data graph.
// Failures carry machine-readable codes ({"code","error"}) the client
// decodes into *api.Error. See API.md for the endpoint reference;
// examples/server runs the same loop self-contained, and internal/engine
// documents the embedded API (engine.New, Engine.Match, Engine.Stream).
//
// # Live updates quickstart
//
// The served graph is mutable: register a standing query, mutate the graph
// under it, and poll the maintained results and their deltas — only the
// centers within pattern-diameter hops of each change are re-evaluated:
//
//	reg, err := cl.RegisterText(ctx, "node a HR\nnode b SE\nedge a b")
//	_, err = cl.Update(ctx,
//	    api.AddNode("HR"),
//	    api.InsertEdge(10000, 42))
//	qj, err := cl.StandingQuery(ctx, reg.ID)   // current matches + version
//	delta, err := cl.PollDelta(ctx, reg.ID)    // what just changed
//
// Standing results are byte-identical to re-running /v1/match from scratch
// at the same version. examples/live runs this loop self-contained, and
// internal/live documents the embedded API (live.NewStore, Store.Apply,
// Store.Register).
//
// cmd/experiments regenerates each table and figure of the paper's
// evaluation (experiments.Artifacts; TestEveryArtifactRuns runs them all at
// reduced scale); see EXPERIMENTS.md for a captured run against the paper's
// reported numbers and DESIGN.md for the per-experiment index and
// substitutions. bench/ is the serving benchmark.
package repro
