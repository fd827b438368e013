package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/obs"
)

// Config tunes the HTTP front end. Zero values take the defaults noted on
// each field.
type Config struct {
	// DefaultTimeout is the per-request deadline applied when a request
	// does not ask for one (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the deadline a request may ask for (default 60s).
	MaxTimeout time.Duration
	// MaxBodyBytes caps the request body (default 8 MiB); larger bodies
	// answer 413 body_too_large.
	MaxBodyBytes int64
	// AccessLog, when set, receives one structured line per request (method,
	// path, status, bytes, duration, request id, plus handler annotations
	// like match counts and stream outcomes). nil disables access logging;
	// metrics are collected either way.
	AccessLog *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose internals and belong on operator-facing
	// listeners only.
	EnablePprof bool
	// EnableDebug builds the server's recorder, which traces every request
	// and tracks every query, and mounts the /v1/debug route group over it:
	// the in-flight query table (with live stage and progress), admin
	// cancellation by request id, and the recent, slow and trace views of
	// one ring of the last 256 finished requests. Off by default — the
	// debug surface can cancel any tenant's query and belongs on
	// operator-facing listeners only. Match responses are byte-identical
	// either way.
	EnableDebug bool
	// SlowQueryThreshold classifies completed queries at or above this
	// latency as slow: counted in slow_queries_total, served by
	// /v1/debug/queries/slow, and logged through AccessLog with the full
	// stage breakdown. Requests whose root span runs this long keep their
	// trace ("slow"). Zero means 1s; negative disables both. Only
	// meaningful with EnableDebug.
	SlowQueryThreshold time.Duration
	// TraceSampleRate is the head-sampling probability in [0, 1] of the
	// debug recorder: the fraction of requests whose trace is kept even
	// when fast and successful. Slow, errored and cancelled requests are
	// kept regardless (tail-based sampling), as are requests arriving with
	// a sampled traceparent. Zero keeps only those; only meaningful with
	// EnableDebug.
	TraceSampleRate float64
	// NodeID is the stable fleet-member identifier reported in
	// /v1/healthz; empty generates a random one at server construction, so
	// probes can always tell two processes apart.
	NodeID string
	// Role names the deployment shape in /v1/healthz: RoleStandalone
	// (default), RoleShard (a fleet member behind a router) or RoleRouter.
	Role string
}

func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.NodeID == "" {
		c.NodeID = generateNodeID()
	}
	if c.Role == "" {
		c.Role = RoleStandalone
	}
	return c
}

// NewLiveServer serves the /v1 protocol over a live store: every request
// is answered against the store's latest published version, and /v1/update
// and the /v1/queries standing-query tree change what it holds. See the
// package comment for the route tree. Queries plan through the store's
// planner, whose result cache holds answers for the newest version only:
// the first query after an update batch empties it.
func NewLiveServer(st *live.Store, cfg Config) http.Handler {
	return NewFleetServer(st, local{store: st}, cfg)
}

// NewFleetServer is NewLiveServer with evaluation delegated: the same route
// tree, validation and middleware over the fleet's authoritative store st,
// with match, stream and update carried out by b (shard.Router fans them
// out) and healthz amended by it. Everything else — graph, metrics, the
// standing-query tree, debug — is answered from st as on a single node.
func NewFleetServer(st *live.Store, b Backend, cfg Config) http.Handler {
	s := &server{store: st, backend: b}
	return s.routes(cfg)
}

type server struct {
	// store holds the node's graph; a request resolves its engine, the
	// latest published version's, once, and plans through its planner
	// unless it opts out with "no_plan": true.
	store   *live.Store
	backend Backend // evaluates what the handlers resolved
	cfg     Config
	log     *slog.Logger // nil disables access logging
	// recorder tracks in-flight queries, traces every request and files
	// finished ones for the /v1/debug group when Config.EnableDebug is set;
	// nil otherwise, and every recorder call on the serving path is a
	// nil-safe no-op.
	recorder *obs.Recorder
}

// routes builds the one /v1 route tree every deployment shape serves. Every
// route passes through the instrumentation middleware (metrics.go);
// /debug/pprof does not.
func (s *server) routes(cfg Config) http.Handler {
	s.cfg = cfg.withDefaults()
	s.log = s.cfg.AccessLog
	registerProcessMetrics()
	if s.cfg.EnableDebug {
		s.recorder = obs.NewRecorder(obs.RecorderConfig{
			SlowThreshold: s.cfg.SlowQueryThreshold,
			SampleRate:    s.cfg.TraceSampleRate,
			Log:           s.cfg.AccessLog,
		})
	}
	rt := newRouter()
	s.route(rt, "GET", Prefix+"/healthz", s.handleHealth)
	s.route(rt, "GET", Prefix+"/graph", s.handleGraph)
	s.route(rt, "GET", Prefix+"/metrics", s.handleMetrics)
	s.route(rt, "POST", Prefix+"/match", s.handleMatch)
	s.route(rt, "POST", Prefix+"/match/stream", s.handleMatchStream)
	s.route(rt, "POST", Prefix+"/update", s.handleUpdate)
	s.route(rt, "POST", Prefix+"/queries", s.handleRegister)
	s.route(rt, "GET", Prefix+"/queries", s.handleListQueries)
	s.route(rt, "GET", Prefix+"/queries/{id}", s.handleGetQuery)
	s.route(rt, "DELETE", Prefix+"/queries/{id}", s.handleUnregister)
	s.route(rt, "GET", Prefix+"/queries/{id}/delta", s.handleDelta)
	if s.recorder != nil {
		// Literal routes win over the {request_id} wildcard in the Go 1.22
		// mux, so /recent and /slow are never captured as ids. Their
		// generated method-less 405 fallbacks would be ambiguous against the
		// DELETE wildcard, though, so the wildcard's fallback answers wrong
		// methods for the whole subtree with a path-sensitive Allow set.
		s.route(rt, "GET", Prefix+"/debug/queries", s.handleDebugActive)
		s.route(rt, "GET", Prefix+"/debug/queries/recent", s.handleDebugRecent)
		s.route(rt, "GET", Prefix+"/debug/queries/slow", s.handleDebugSlow)
		s.route(rt, "DELETE", Prefix+"/debug/queries/{request_id}", s.handleDebugCancel)
		// The traces pair is GET-only on both the literal and the wildcard,
		// so the generated fallbacks stay unambiguous.
		s.route(rt, "GET", Prefix+"/debug/traces", s.handleDebugTraces)
		s.route(rt, "GET", Prefix+"/debug/traces/{trace_id}", s.handleDebugTrace)
		rt.noFallback[Prefix+"/debug/queries/recent"] = true
		rt.noFallback[Prefix+"/debug/queries/slow"] = true
		rt.custom[Prefix+"/debug/queries/{request_id}"] = func(w http.ResponseWriter, r *http.Request) {
			allow := "DELETE"
			if id := r.PathValue("request_id"); id == "recent" || id == "slow" {
				allow = "GET"
			}
			w.Header().Set("Allow", allow)
			writeError(w, Errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				"%s does not allow %s (allowed: %s)", r.URL.Path, r.Method, allow))
		}
	}
	if s.cfg.EnablePprof {
		mountPprof(rt)
	}
	return rt.build()
}

// route registers one instrumented endpoint. The route pattern (not the
// concrete request path) names the endpoint in metrics, keeping label
// cardinality bounded.
func (s *server) route(rt *router, method, path string, h http.HandlerFunc) {
	rt.handle(method, path, s.instrument(method, path, h))
}

// router groups handlers per path so every route answers wrong methods
// with a structured 405 naming the allowed set, and unknown paths answer a
// structured 404 — the Go 1.22 "METHOD /path" mux patterns do the method
// dispatch.
type router struct {
	mux    *http.ServeMux
	byPath map[string][]string // path -> methods registered
	order  []string
	// noFallback suppresses the generated method-less 405 handler for a
	// path, and custom replaces it — needed where a literal path and a
	// sibling wildcard would make the generated fallbacks ambiguous to the
	// mux (the /v1/debug/queries tree).
	noFallback map[string]bool
	custom     map[string]http.HandlerFunc
}

func newRouter() *router {
	return &router{
		mux:        http.NewServeMux(),
		byPath:     make(map[string][]string),
		noFallback: make(map[string]bool),
		custom:     make(map[string]http.HandlerFunc),
	}
}

func (rt *router) handle(method, path string, h http.HandlerFunc) {
	rt.mux.HandleFunc(method+" "+path, h)
	if _, seen := rt.byPath[path]; !seen {
		rt.order = append(rt.order, path)
	}
	rt.byPath[path] = append(rt.byPath[path], method)
}

// raw registers a handler outside the method/405 bookkeeping and the
// instrumentation middleware — the /debug/pprof tree, whose handlers do
// their own method handling and whose long profile downloads would distort
// the latency histograms.
func (rt *router) raw(path string, h http.HandlerFunc) {
	rt.mux.HandleFunc(path, h)
}

func (rt *router) build() http.Handler {
	for _, path := range rt.order {
		if h := rt.custom[path]; h != nil {
			rt.mux.HandleFunc(path, h)
			continue
		}
		if rt.noFallback[path] {
			continue
		}
		methods := rt.byPath[path]
		sort.Strings(methods)
		allow := strings.Join(methods, ", ")
		rt.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", allow)
			writeError(w, Errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				"%s does not allow %s (allowed: %s)", path, r.Method, allow))
		})
	}
	rt.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, Errorf(http.StatusNotFound, CodeNotFound, "no route %s", r.URL.Path))
	})
	return rt.mux
}

// writeJSON answers v as one JSON body followed by a newline, the bytes
// json.Encoder writes, with its Content-Length.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = json.Marshal(Errorf(status, CodeInternal, "encoding response: %v", err)) // an Error always encodes
	}
	writeBody(w, status, append(b, '\n'))
}

// writeBody answers status with the JSON body b in one write.
func writeBody(w http.ResponseWriter, status int, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b) // a failed write means the client is gone; there is no one left to tell
}

// bodyBufs holds the buffers request bodies are read into and match
// responses appended into; buffers above maxPooledBody are dropped.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

func putBodyBuf(p *[]byte, b []byte) {
	if cap(b) <= maxPooledBody {
		*p = b[:0]
		bodyBufs.Put(p)
	}
}

func writeError(w http.ResponseWriter, e *Error) {
	writeJSON(w, e.Status, e)
}

// decode reads the request body whole under the server's byte cap and
// decodes it as one JSON value with nothing after it. A match request goes
// through the schema decoder (codec.go); whatever it refuses, and every other
// body, through encoding/json. strict additionally rejects unknown fields
// (the update endpoint, where a misspelled field must not silently change
// meaning).
func (s *server) decode(w http.ResponseWriter, r *http.Request, dst any, strict bool) *Error {
	p := bodyBufs.Get().(*[]byte)
	buf := bytes.NewBuffer(*p)
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	body := buf.Bytes()
	defer putBodyBuf(p, body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return Errorf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
		}
		return Errorf(http.StatusBadRequest, CodeInvalidRequest, "decoding request: %v", err)
	}
	return decodeBody(body, dst, strict)
}

// decodeBody is decode's work on the read body.
func decodeBody(body []byte, dst any, strict bool) *Error {
	if req, ok := dst.(*MatchRequest); ok {
		if decodeMatchRequest(body, req) {
			return nil
		}
		*req = MatchRequest{}
		dst = (*matchRequestAlias)(req)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(dst); err != nil {
		return Errorf(http.StatusBadRequest, CodeInvalidRequest, "decoding request: %v", aliasError(err))
	}
	if dec.Decode(new(json.RawMessage)) != io.EOF {
		return Errorf(http.StatusBadRequest, CodeInvalidRequest,
			"decoding request: unexpected data after the JSON value")
	}
	return nil
}

// timeout resolves a request's deadline from its deadline_ms, clamped to
// the server's maximum.
func (s *server) timeout(ms int) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// resolvePattern produces the pattern graph of a match request, parsed
// label-compatibly with the resolved engine's snapshot.
func resolvePattern(e *engine.Engine, req *MatchRequest) (*graph.Graph, *Error) {
	switch {
	case req.Pattern != nil && req.PatternText != "":
		return nil, Errorf(http.StatusBadRequest, CodeInvalidRequest,
			`"pattern" and "pattern_text" are mutually exclusive`)
	case req.Pattern != nil:
		q, err := req.Pattern.ToGraph(e.Snapshot().Graph().Labels())
		if err != nil {
			return nil, patternError(err)
		}
		return q, nil
	case req.PatternText != "":
		q, err := e.Snapshot().ParsePattern(req.PatternText)
		if err != nil {
			return nil, Errorf(http.StatusBadRequest, CodeInvalidPattern, "parsing pattern: %v", err)
		}
		return q, nil
	default:
		return nil, Errorf(http.StatusBadRequest, CodeInvalidRequest, "missing pattern")
	}
}

// patternError maps a PatternJSON conversion failure to its wire error.
func patternError(err error) *Error {
	code := CodeInvalidPattern
	if errors.Is(err, ErrBoundedEdge) {
		code = CodeUnsupportedBound
	}
	return Errorf(http.StatusBadRequest, code, "invalid pattern: %v", err)
}

// matchError maps a Backend's match failure to its wire error: a refusal
// it already phrased as one is kept, anything else is an engine failure.
func matchError(err error) *Error {
	var aerr *Error
	switch {
	case errors.As(err, &aerr):
		return aerr
	case errors.Is(err, context.DeadlineExceeded):
		return Errorf(http.StatusGatewayTimeout, CodeDeadlineExceeded, "query deadline exceeded")
	case errors.Is(err, context.Canceled):
		// The client went away; the status is moot but 499-style closure
		// keeps logs honest.
		return Errorf(http.StatusRequestTimeout, CodeCancelled, "request cancelled")
	default:
		// The engine rejects patterns (empty, disconnected) after parsing.
		return Errorf(http.StatusBadRequest, CodeInvalidPattern, "%v", err)
	}
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	ver := s.store.Current()
	g := ver.Graph()
	h := HealthJSON{
		Status:        "ok",
		NodeID:        s.cfg.NodeID,
		Role:          s.cfg.Role,
		Version:       ver.ID(),
		Nodes:         g.NumNodes(),
		Edges:         g.NumEdges(),
		Labels:        g.Labels().Len(),
		Queries:       s.store.NumQueries(),
		UptimeSeconds: obs.Uptime().Seconds(),
		GoVersion:     runtime.Version(),
		ModuleVersion: moduleVersion(),
		Workers:       ver.Engine().Workers(),
	}
	s.backend.Health(&h)
	writeJSON(w, http.StatusOK, h)
}

// moduleVersion reports the main module's version from build info:
// "(devel)" for source builds, the tag for released binaries, "" when the
// binary carries no module info (some test binaries).
func moduleVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		return bi.Main.Version
	}
	return ""
}

func (s *server) handleGraph(w http.ResponseWriter, r *http.Request) {
	e := s.store.Engine()
	g := e.Snapshot().Graph()
	writeJSON(w, http.StatusOK, GraphInfoJSON{
		Name:    g.Name(),
		Nodes:   g.NumNodes(),
		Edges:   g.NumEdges(),
		Labels:  g.Labels().Len(),
		Workers: e.Workers(),
	})
}

// resolve decodes and validates a match request, in the one order every
// deployment answers malformed requests in: body, pattern, (streaming:
// top_k,) spec, connectivity. Whatever it admits a Backend can evaluate.
func (s *server) resolve(w http.ResponseWriter, r *http.Request, stream bool) (*Query, *Error) {
	q := new(Query)
	if aerr := s.decode(w, r, &q.Request, false); aerr != nil {
		return nil, aerr
	}
	q.Engine = s.store.Engine() // one resolution: the whole request sees one version
	var aerr *Error
	if q.Pattern, aerr = resolvePattern(q.Engine, &q.Request); aerr != nil {
		return nil, aerr
	}
	spec := &q.Request.Query
	if stream && spec.TopK != 0 {
		return nil, Errorf(http.StatusBadRequest, CodeInvalidQuery,
			"top_k is not supported on %s/match/stream: ranking needs the full result set", Prefix)
	}
	var err error
	if q.Opts, q.Metric, err = spec.Compile(); err != nil {
		return nil, Errorf(http.StatusBadRequest, CodeInvalidQuery, "%v", err)
	}
	if !spec.NoPlan {
		q.Opts.Planner = s.store.Planner() // only an unlimited, unranked Match uses it
	}
	// Up front, not left to the engine: a stream commits its 200 before the
	// engine could object, and a router must reject the pattern with the
	// single node's verdict before it fans out.
	if _, connected := graph.Diameter(q.Pattern); !connected {
		return nil, Errorf(http.StatusBadRequest, CodeInvalidPattern,
			"pattern graph must be connected (Section 2.1)")
	}
	return q, nil
}

func (s *server) handleMatch(w http.ResponseWriter, r *http.Request) {
	q, aerr := s.resolve(w, r, false)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	spec := &q.Request.Query
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(spec.DeadlineMS))
	defer cancel()
	trace := s.trace(r, spec.Stats)
	q.Opts.Trace = trace
	fl := s.flightStart(r, "match", q.Request.digest, cancel, trace)

	start := time.Now()
	resp, err := s.backend.Match(ctx, q)
	if err != nil {
		s.failFlight(w, fl, matchError(err))
		return
	}
	// query_stats stays opt-in: the recorder may have forced a trace,
	// but only "stats": true puts it on the wire — a recorder-on response is
	// byte-identical to a recorder-off one.
	if spec.Stats && trace != nil {
		resp.QueryStats = FromQueryStats(&trace.Stats)
	}
	fl.Finish(obs.OutcomeOK, "", len(resp.Matches))
	resp.ElapsedMS = msOf(time.Since(start))
	reqInfo(r.Context()).setMatches(len(resp.Matches))
	p := bodyBufs.Get().(*[]byte)
	b, err := appendMatchResponse(*p, &resp)
	if err != nil {
		writeError(w, Errorf(http.StatusInternalServerError, CodeInternal, "encoding response: %v", err))
	} else {
		b = append(b, '\n')
		writeBody(w, http.StatusOK, b)
	}
	putBodyBuf(p, b)
}

func (s *server) handleMatchStream(w http.ResponseWriter, r *http.Request) {
	q, aerr := s.resolve(w, r, true)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	spec := &q.Request.Query
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(spec.DeadlineMS))
	defer cancel()
	trace := s.trace(r, spec.Stats)
	q.Opts.Trace = trace
	fl := s.flightStart(r, "stream", q.Request.digest, cancel, trace)

	// The 200 commits with the first line written — a match or the trailer.
	// Until then a Backend's refusal is still an ordinary HTTP error.
	committed := false
	flusher, _ := w.(http.Flusher)
	line := func(b []byte) error {
		if !committed {
			committed = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		_, err := w.Write(b)
		if flusher != nil {
			flusher.Flush()
		}
		return err
	}

	start := time.Now()
	count := 0
	var buf []byte
	resp, err := s.backend.Stream(ctx, q, func(ps *core.PerfectSubgraph) bool {
		// The bytes json.Encoder writes for StreamEventJSON{Match: &sj}.
		sj := FromSubgraph(ps)
		e := encoder{b: append(buf[:0], `{"match":`...)}
		e.subgraph(&sj)
		buf = append(e.b, "}\n"...)
		if line(buf) != nil {
			return false // writer gone
		}
		count++
		return true
	})
	var refusal *Error
	if !committed && errors.As(err, &refusal) {
		s.failFlight(w, fl, refusal)
		return
	}
	done := StreamDoneJSON{
		Matches:   count,
		Stats:     resp.Stats,
		Partial:   resp.Partial,
		ElapsedMS: msOf(time.Since(start)),
	}
	// The status cannot tell how a stream ended; the access log's outcome
	// annotation and the trailer's code do.
	info := reqInfo(r.Context())
	info.setMatches(count)
	outcome := obs.OutcomeOK
	if err != nil {
		aerr := matchError(err)
		done.Code, done.Error = aerr.Code, aerr.Message
		outcome = outcomeForCode(aerr.Code)
	}
	info.setOutcome(outcome)
	fl.Finish(outcome, done.Error, count)
	if spec.Stats && trace != nil {
		done.QueryStats = FromQueryStats(&trace.Stats)
	}
	// The trailer carries free-text errors: encoding/json writes it.
	b, _ := json.Marshal(StreamEventJSON{Done: &done})
	_ = line(append(b, '\n')) // the client may be gone; nothing left to tell it
}
