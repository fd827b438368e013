// Package client is the typed Go SDK for the /v1 wire protocol of package
// api — the strong-simulation matching service served by cmd/strongsimd.
// It covers every endpoint (one-shot and streaming matches, top-k ranking,
// graph introspection, mutation batches, standing queries and their
// deltas), honors context deadlines end to end (an unset
// QuerySpec.DeadlineMS is filled from the context's deadline so the server
// gives up when the caller does), and decodes failures into *api.Error so
// callers branch on machine-readable codes:
//
//	cl := client.New("http://localhost:8372")
//	res, err := cl.MatchText(ctx, "node a HR\nnode b SE\nedge a b",
//		api.QuerySpec{Mode: api.ModePlus})
//	var aerr *api.Error
//	if errors.As(err, &aerr) && aerr.Code == api.CodeInvalidPattern {
//		// fix the pattern
//	}
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/api"
)

// Client speaks the /v1 protocol against one base URL. It is safe for
// concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transports, timeouts, instrumentation). The default is a dedicated
// client with no global timeout — deadlines come from the context.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the service at baseURL (scheme://host[:port],
// with or without a trailing slash).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// errorBodyLimit caps how much of an error response is read looking for
// the structured envelope.
const errorBodyLimit = 1 << 20

type (
	requestIDKey        struct{}
	requestIDCaptureKey struct{}
	traceParentKey      struct{}
)

// WithRequestID returns a context that stamps id into the X-Request-Id
// header of every call made with it, so a caller can correlate its own
// requests with the server's access log and flight recorder
// (/v1/debug/queries): the id names the query there and is the handle
// CancelQuery takes. The server sanitizes unusable ids (and may suffix a
// duplicate of a still-running query); read the id a call actually got with
// WithEchoedRequestID, or from *api.Error.RequestID on failures.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// WithEchoedRequestID returns a context that copies the X-Request-Id the
// server echoed into *dst after each call made with it (the last call
// wins). It works for successes and failures alike; failures additionally
// carry the id on *api.Error.RequestID.
func WithEchoedRequestID(ctx context.Context, dst *string) context.Context {
	return context.WithValue(ctx, requestIDCaptureKey{}, dst)
}

// WithTraceContext returns a context that stamps traceparent (a W3C
// trace-context value, "00-<trace id>-<span id>-<flags>") into the
// traceparent header of every call made with it, so the server-side trace
// joins the caller's distributed trace instead of minting its own. Setting
// the sampled flag (…-01) forces the server to keep the trace regardless of
// its own sampling. The server echoes the effective traceparent on every
// traced response; failures carry its trace id on *api.Error.TraceID.
func WithTraceContext(ctx context.Context, traceparent string) context.Context {
	return context.WithValue(ctx, traceParentKey{}, traceparent)
}

// decodeError turns a non-2xx response into an *api.Error, falling back to
// the raw body when the server (or a proxy in front of it) answered
// something unstructured.
func decodeError(resp *http.Response) error {
	reqID := resp.Header.Get(api.RequestIDHeader)
	traceID := echoedTraceID(resp)
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, errorBodyLimit))
	var e api.Error
	if json.Unmarshal(raw, &e) == nil && e.Message != "" {
		if e.Code == "" {
			e.Code = api.CodeUnavailable
		}
		e.Status = resp.StatusCode
		e.RequestID = reqID
		e.TraceID = traceID
		return &e
	}
	msg := strings.TrimSpace(string(raw))
	if msg == "" {
		msg = resp.Status
	}
	return &api.Error{Code: api.CodeUnavailable, Message: msg, Status: resp.StatusCode,
		RequestID: reqID, TraceID: traceID}
}

// echoedTraceID extracts the trace id from the traceparent a response
// carried: the 32 hex digits that name the request's trace in
// GET /v1/debug/traces/{trace_id}. Empty when the server does not trace.
func echoedTraceID(resp *http.Response) string {
	tp := resp.Header.Get(api.TraceparentHeader) // "vv-<32 hex digits>-…"
	if len(tp) >= 35 && tp[2] == '-' && !strings.Contains(tp[3:35], "-") {
		return tp[3:35]
	}
	return ""
}

// roundTrip posts (or gets) one JSON request and decodes the response.
// out may be nil for endpoints answering no body.
func (c *Client) roundTrip(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var buf []byte
	if in != nil {
		var err error
		buf, err = json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("client: encoding %s %s request: %w", method, path, err)
		}
	}
	attempts := 1
	if c.retry.enabled() {
		attempts = c.retry.MaxAttempts
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.sendOnce(ctx, method, path, in != nil, buf)
		last := attempt == attempts-1
		switch {
		case err == nil && !retryableStatus(resp.StatusCode):
			return resp, nil // success or a 4xx the caller must see
		case err == nil && last:
			return resp, nil // final 5xx: hand the caller the real error body
		case err == nil:
			discard(resp) // 5xx with attempts left
		case !retryableError(err) || last:
			return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
		}
		if !sleep(ctx, c.retry.delay(attempt)) {
			return nil, fmt.Errorf("client: %s %s: %w", method, path, ctx.Err())
		}
	}
}

// sendOnce performs one attempt of send; the body is rebuilt per attempt so
// retries never replay a consumed reader.
func (c *Client) sendOnce(ctx context.Context, method, path string, hasBody bool, buf []byte) (*http.Response, error) {
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err // send wraps
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if id, ok := ctx.Value(requestIDKey{}).(string); ok && id != "" {
		req.Header.Set(api.RequestIDHeader, id)
	}
	if tp, ok := ctx.Value(traceParentKey{}).(string); ok && tp != "" {
		req.Header.Set(api.TraceparentHeader, tp)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if dst, ok := ctx.Value(requestIDCaptureKey{}).(*string); ok && dst != nil {
		*dst = resp.Header.Get(api.RequestIDHeader)
	}
	return resp, nil
}

// withCtxDeadline fills an unset DeadlineMS from the context's deadline,
// so the server-side query gives up when the caller does instead of
// burning workers on an abandoned request.
func withCtxDeadline(ctx context.Context, spec api.QuerySpec) api.QuerySpec {
	if spec.DeadlineMS != 0 {
		return spec
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := int(time.Until(dl).Milliseconds()); ms > 0 {
			spec.DeadlineMS = ms
		}
	}
	return spec
}

// Healthz probes the service and returns its summary.
func (c *Client) Healthz(ctx context.Context) (*api.HealthJSON, error) {
	var h api.HealthJSON
	if err := c.roundTrip(ctx, http.MethodGet, api.Prefix+"/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Metrics scrapes GET /v1/metrics and returns the raw Prometheus text
// exposition. Parse it with obs.ParseText or feed it to any Prometheus
// scraper; the benchmark harness diffs two scrapes to attribute a run's
// cost to layers.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.send(ctx, http.MethodGet, api.Prefix+"/metrics", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return "", decodeError(resp)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: reading metrics: %w", err)
	}
	return string(raw), nil
}

// Graph describes the served data graph and engine.
func (c *Client) Graph(ctx context.Context) (*api.GraphInfoJSON, error) {
	var g api.GraphInfoJSON
	if err := c.roundTrip(ctx, http.MethodGet, api.Prefix+"/graph", nil, &g); err != nil {
		return nil, err
	}
	return &g, nil
}

// Match runs one query to completion. The request's QuerySpec selects
// mode, limit, ranking and deadline; an unset deadline follows ctx.
func (c *Client) Match(ctx context.Context, req api.MatchRequest) (*api.MatchResponse, error) {
	req.Query = withCtxDeadline(ctx, req.Query)
	var res api.MatchResponse
	if err := c.roundTrip(ctx, http.MethodPost, api.Prefix+"/match", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// MatchPattern is Match over a structured pattern.
func (c *Client) MatchPattern(ctx context.Context, p *api.PatternJSON, spec api.QuerySpec) (*api.MatchResponse, error) {
	return c.Match(ctx, api.MatchRequest{Pattern: p, Query: spec})
}

// MatchText is Match over a pattern in the text format of internal/graph.
func (c *Client) MatchText(ctx context.Context, pattern string, spec api.QuerySpec) (*api.MatchResponse, error) {
	return c.Match(ctx, api.MatchRequest{PatternText: pattern, Query: spec})
}

// TopK returns the k best matches for the pattern under the named metric
// ("" for the default blend), overriding any ranking already in the spec.
func (c *Client) TopK(ctx context.Context, req api.MatchRequest, k int, metric string) (*api.MatchResponse, error) {
	req.Query.TopK = k
	req.Query.Metric = metric
	return c.Match(ctx, req)
}

// MatchStream runs a streaming query: fn is called for every match as the
// server emits it, in worker completion order. fn returning an error stops
// consuming (the server notices the closed body and cancels the query) and
// surfaces that error. The returned trailer carries the run's statistics;
// a query that failed mid-stream (deadline, cancellation) surfaces as an
// *api.Error alongside the trailer received so far.
func (c *Client) MatchStream(ctx context.Context, req api.MatchRequest, fn func(api.SubgraphJSON) error) (*api.StreamDoneJSON, error) {
	req.Query = withCtxDeadline(ctx, req.Query)
	resp, err := c.send(ctx, http.MethodPost, api.Prefix+"/match/stream", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return nil, decodeError(resp)
	}
	// NDJSON is concatenated JSON values; a Decoder reads them without a
	// line-length cap, so arbitrarily large single matches stream fine.
	dec := json.NewDecoder(resp.Body)
	var done *api.StreamDoneJSON
	for {
		var ev api.StreamEventJSON
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return done, fmt.Errorf("client: decoding stream: %w", err)
		}
		switch {
		case ev.Match != nil:
			if err := fn(*ev.Match); err != nil {
				return done, err
			}
		case ev.Done != nil:
			done = ev.Done
		}
	}
	if done == nil {
		return nil, fmt.Errorf("client: stream ended without a done trailer")
	}
	if done.Code != "" {
		return done, &api.Error{Code: done.Code, Message: done.Error, Status: resp.StatusCode}
	}
	return done, nil
}

// Update applies one atomic mutation batch. Build mutations with
// api.AddNode, api.InsertEdge, api.DeleteEdge and api.DeleteNode.
func (c *Client) Update(ctx context.Context, muts ...api.MutationJSON) (*api.UpdateResponse, error) {
	var res api.UpdateResponse
	err := c.roundTrip(ctx, http.MethodPost, api.Prefix+"/update", api.UpdateRequest{Updates: muts}, &res)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// RegisterStandingQuery registers a pattern whose result set the server
// keeps incrementally maintained across updates.
func (c *Client) RegisterStandingQuery(ctx context.Context, req api.RegisterRequest) (*api.QueryJSON, error) {
	var qj api.QueryJSON
	if err := c.roundTrip(ctx, http.MethodPost, api.Prefix+"/queries", req, &qj); err != nil {
		return nil, err
	}
	return &qj, nil
}

// RegisterText is RegisterStandingQuery over a text-format pattern.
func (c *Client) RegisterText(ctx context.Context, pattern string) (*api.QueryJSON, error) {
	return c.RegisterStandingQuery(ctx, api.RegisterRequest{PatternText: pattern})
}

// StandingQueries lists the registered standing queries (without their
// match sets).
func (c *Client) StandingQueries(ctx context.Context) ([]api.QueryJSON, error) {
	var out []api.QueryJSON
	if err := c.roundTrip(ctx, http.MethodGet, api.Prefix+"/queries", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// StandingQuery fetches one standing query with its current match set.
func (c *Client) StandingQuery(ctx context.Context, id int64) (*api.QueryJSON, error) {
	var qj api.QueryJSON
	if err := c.roundTrip(ctx, http.MethodGet, fmt.Sprintf("%s/queries/%d", api.Prefix, id), nil, &qj); err != nil {
		return nil, err
	}
	return &qj, nil
}

// PollDelta fetches a standing query's most recent maintenance delta: the
// matches added and removed between its last two maintained versions.
func (c *Client) PollDelta(ctx context.Context, id int64) (*api.DeltaJSON, error) {
	var d api.DeltaJSON
	if err := c.roundTrip(ctx, http.MethodGet, fmt.Sprintf("%s/queries/%d/delta", api.Prefix, id), nil, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// UnregisterStandingQuery removes a standing query.
func (c *Client) UnregisterStandingQuery(ctx context.Context, id int64) error {
	return c.roundTrip(ctx, http.MethodDelete, fmt.Sprintf("%s/queries/%d", api.Prefix, id), nil, nil)
}

// The /v1/debug group mirrors the server's query flight recorder. The
// routes exist only on servers started with api.Config.EnableDebug
// (strongsimd -debug); against anything else every method fails with
// *api.Error carrying api.CodeNotFound.

// ActiveQueries lists the queries in flight right now, oldest first, each
// with its live stage and balls-evaluated progress counter.
func (c *Client) ActiveQueries(ctx context.Context) ([]api.ActiveQueryJSON, error) {
	var out []api.ActiveQueryJSON
	if err := c.roundTrip(ctx, http.MethodGet, api.Prefix+"/debug/queries", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// RecentQueries returns the server's ring of recently completed queries,
// newest first, with outcome, latency and the full stage trace.
func (c *Client) RecentQueries(ctx context.Context) ([]api.QueryRecordJSON, error) {
	var out []api.QueryRecordJSON
	if err := c.roundTrip(ctx, http.MethodGet, api.Prefix+"/debug/queries/recent", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// SlowQueries returns the ring of completed queries that crossed the
// server's slow-query threshold, newest first.
func (c *Client) SlowQueries(ctx context.Context) ([]api.QueryRecordJSON, error) {
	var out []api.QueryRecordJSON
	if err := c.roundTrip(ctx, http.MethodGet, api.Prefix+"/debug/queries/slow", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CancelQuery cancels the in-flight query registered under requestID (as
// listed by ActiveQueries, or set on the originating call via
// WithRequestID). The cancelled query fails on its own connection with
// api.CodeCancelled and records outcome "cancelled" in RecentQueries.
// Unknown — typically already finished — ids fail with api.CodeNotFound.
func (c *Client) CancelQuery(ctx context.Context, requestID string) error {
	return c.roundTrip(ctx, http.MethodDelete,
		api.Prefix+"/debug/queries/"+url.PathEscape(requestID), nil, nil)
}

// Traces lists the server's kept request traces, newest first: the slow,
// errored and head-sampled requests tail sampling retained, each naming its
// root span and keep reason.
func (c *Client) Traces(ctx context.Context) ([]api.TraceSummaryJSON, error) {
	var out []api.TraceSummaryJSON
	if err := c.roundTrip(ctx, http.MethodGet, api.Prefix+"/debug/traces", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Trace fetches one kept trace by its 32-hex-digit id — echoed on every
// traced response's traceparent, carried by *api.Error.TraceID on failures,
// and listed by Traces — as its full span tree. Traces the server dropped
// (fast, successful, unsampled) fail with api.CodeNotFound.
func (c *Client) Trace(ctx context.Context, traceID string) (*api.TraceJSON, error) {
	var tj api.TraceJSON
	if err := c.roundTrip(ctx, http.MethodGet,
		api.Prefix+"/debug/traces/"+url.PathEscape(traceID), nil, &tj); err != nil {
		return nil, err
	}
	return &tj, nil
}
