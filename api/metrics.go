package api

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	rtdebug "runtime/debug"
	"strings"
	"time"

	"repro/internal/obs"
)

// RequestIDHeader is the header request identifiers travel in, both
// directions: a client-supplied id is accepted (sanitized) and echoed, a
// missing one is generated. Every access-log line carries the id, so one
// request can be followed across client retries and server logs.
const RequestIDHeader = "X-Request-Id"

// TraceparentHeader is the W3C trace-context header request traces travel
// in, both directions: a valid incoming traceparent is adopted (same trace
// id, the remote span as the root's parent, the sampled flag honored as a
// keep), anything else mints a fresh trace, and the response always carries
// the effective context — trace id, root span id, head-sampling decision —
// when the server traces. Exported for SDK use; the server side lives in
// internal/obs.
const TraceparentHeader = obs.TraceparentHeader

// panicsTotal counts handler panics recovered by the middleware; each one
// also answers a structured 500 (when the response was not yet committed)
// instead of silently killing the connection.
var panicsTotal = obs.Default.Counter("http_panics_total",
	"handler panics recovered by the serving middleware")

// routeMetrics is the per-route instrument set, resolved once when the route
// tree is built so the per-request path does no registry lookups.
type routeMetrics struct {
	byClass [4]*obs.Counter // 2xx, 3xx, 4xx, 5xx
	latency *obs.Histogram
}

func newRouteMetrics(method, endpoint string) *routeMetrics {
	m := &routeMetrics{
		latency: obs.Default.Histogram("http_request_seconds",
			"request latency by endpoint", obs.DefBuckets(),
			"endpoint", endpoint, "method", method),
	}
	for i, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
		m.byClass[i] = obs.Default.Counter("http_requests_total",
			"requests served by endpoint, method and status class",
			"code", class, "endpoint", endpoint, "method", method)
	}
	return m
}

func (m *routeMetrics) observe(status int, d time.Duration) {
	i := status/100 - 2
	if i < 0 || i >= len(m.byClass) {
		i = 3 // anything exotic counts as a server-side failure
	}
	m.byClass[i].Inc()
	m.latency.Observe(d.Seconds())
}

// requestInfo is the per-request observability state the middleware threads
// through the context: the request id plus annotations handlers attach for
// the access log (match counts, stream outcomes), and — when the recorder
// is on — the request's root span, which the serving path parents engine
// stage spans under, and its query's flight. It is written by the handler
// goroutine only.
type requestInfo struct {
	id         string
	matches    int
	hasMatches bool
	outcome    string
	root       obs.Span
	flight     *obs.Flight // the request's query, once its handler started one
}

type requestInfoKey struct{}

// reqInfo returns the request's observability state, or nil outside the
// middleware (direct handler tests).
func reqInfo(ctx context.Context) *requestInfo {
	ri, _ := ctx.Value(requestInfoKey{}).(*requestInfo)
	return ri
}

// setMatches annotates the access-log line with a result count; nil-safe.
func (ri *requestInfo) setMatches(n int) {
	if ri != nil {
		ri.matches = n
		ri.hasMatches = true
	}
}

// setOutcome annotates the access-log line with how the request ended
// ("ok", "cancelled", "deadline", "error") — streaming responses commit the
// 200 before the query finishes, so the status alone cannot tell; nil-safe.
func (ri *requestInfo) setOutcome(outcome string) {
	if ri != nil {
		ri.outcome = outcome
	}
}

// generateNodeID mints the stable random node identifier a server reports
// in /v1/healthz when Config.NodeID is unset. Stable for the server's
// lifetime: withDefaults runs once, at construction.
func generateNodeID() string {
	var buf [4]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "node-unidentified"
	}
	return "node-" + hex.EncodeToString(buf[:])
}

// requestID returns the client-supplied id when it is usable (printable
// ASCII, bounded length) and a fresh random id otherwise.
func requestID(r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id != "" && len(id) <= 64 {
		ok := true
		for i := 0; i < len(id); i++ {
			if id[i] <= ' ' || id[i] > '~' {
				ok = false
				break
			}
		}
		if ok {
			return id
		}
	}
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "unidentified"
	}
	return hex.EncodeToString(buf[:])
}

// obsResponseWriter captures status and byte count, and forwards Flush so
// streaming handlers keep working through the wrapper.
type obsResponseWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *obsResponseWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *obsResponseWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *obsResponseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps one route's handler with the serving middleware: request
// id, per-route counters and latency, panic recovery, and the structured
// access log. endpoint is the route pattern ("/v1/queries/{id}"), not the
// concrete path, so metric cardinality stays bounded.
func (s *server) instrument(method, endpoint string, h http.HandlerFunc) http.HandlerFunc {
	m := newRouteMetrics(method, endpoint)
	// The observability surface itself is not traced: /v1/metrics polls and
	// the /v1/debug group would otherwise fill the recorder's ring with the
	// requests inspecting it.
	spanName := method + " " + endpoint
	traceRoute := endpoint != Prefix+"/metrics" && !strings.HasPrefix(endpoint, Prefix+"/debug/")
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		info := &requestInfo{id: requestID(r)}
		w.Header().Set(RequestIDHeader, info.id)
		if s.recorder != nil && traceRoute {
			// A malformed traceparent mints a fresh trace — propagation is
			// best-effort, never a request error. The response echoes the
			// effective context so callers learn the trace id (and the root
			// span id) their request ran under.
			parent, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
			_, info.root = s.recorder.StartTrace(spanName, info.id, parent)
			w.Header().Set(obs.TraceparentHeader, info.root.Context().String())
		}
		ww := &obsResponseWriter{ResponseWriter: w}
		r = r.WithContext(context.WithValue(r.Context(), requestInfoKey{}, info))
		defer func() {
			if p := recover(); p != nil {
				panicsTotal.Inc()
				if ww.status == 0 {
					// Nothing committed yet: answer a structured 500.
					writeError(ww, Errorf(http.StatusInternalServerError, CodeInternal,
						"internal error (request %s)", info.id))
				}
				info.setOutcome("panic")
				if s.log != nil {
					s.log.LogAttrs(context.Background(), slog.LevelError, "panic",
						slog.String("request_id", info.id),
						slog.String("method", r.Method),
						slog.String("path", r.URL.Path),
						slog.Any("panic", p),
						slog.String("stack", string(rtdebug.Stack())))
				}
			}
			// A query the handler left in flight (it panicked) finishes here,
			// before the root span ends: it leaves the in-flight table and
			// files its record beside its trace.
			info.flight.Finish(obs.OutcomeError, "internal error", 0)
			if ww.status == 0 {
				ww.status = http.StatusOK // handler wrote no body and no header
			}
			dur := time.Since(start)
			m.observe(ww.status, dur)
			s.accessLog(r, info, ww, dur)
			if info.root.Recording() {
				// Ending the root span finishes the trace and runs the
				// tail-sampling keep/drop decision.
				status := ""
				switch {
				case info.outcome != "" && info.outcome != "ok":
					status = info.outcome
				case ww.status >= 400:
					status = "error"
				}
				info.root.EndStatus(status,
					obs.Attr{Key: "http_status", Value: int64(ww.status)})
			}
		}()
		h(ww, r)
	}
}

// accessLog emits one structured line per request when the server has a
// logger configured.
func (s *server) accessLog(r *http.Request, info *requestInfo, ww *obsResponseWriter, dur time.Duration) {
	if s.log == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", ww.status),
		slog.Int64("bytes", ww.bytes),
		slog.Float64("dur_ms", float64(dur.Microseconds())/1000),
		slog.String("request_id", info.id),
	}
	if info.outcome != "" {
		attrs = append(attrs, slog.String("outcome", info.outcome))
	}
	if info.hasMatches {
		attrs = append(attrs, slog.Int("matches", info.matches))
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
}

// handleMetrics renders the process-wide registry in the Prometheus text
// exposition format: per-endpoint request counts and latency histograms,
// exec pool saturation and queue depth, scratch-arena reuse counters, and
// the live store's version/update/standing-query counters.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default.WritePrometheus(w)
}

// registerProcessMetrics (re-)binds the function-backed process gauges; safe
// to call per server construction.
func registerProcessMetrics() {
	obs.Default.GaugeFunc("process_uptime_seconds",
		"seconds since the process started",
		func() float64 { return obs.Uptime().Seconds() })
	obs.Default.GaugeFunc("go_goroutines",
		"goroutines currently live",
		func() float64 { return float64(runtime.NumGoroutine()) })
}

// mountPprof exposes the standard profiling endpoints under /debug/pprof/,
// uninstrumented (profile downloads would distort the latency histograms)
// and gated behind Config.EnablePprof.
func mountPprof(rt *router) {
	rt.raw("/debug/pprof/", pprof.Index)
	rt.raw("/debug/pprof/cmdline", pprof.Cmdline)
	rt.raw("/debug/pprof/profile", pprof.Profile)
	rt.raw("/debug/pprof/symbol", pprof.Symbol)
	rt.raw("/debug/pprof/trace", pprof.Trace)
}
