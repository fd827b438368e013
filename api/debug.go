package api

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// The /v1/debug route group: operator-facing views of the server's
// obs.Recorder. GET /v1/debug/queries lists in-flight queries with their
// live stage and balls-evaluated progress, DELETE
// /v1/debug/queries/{request_id} cancels a running query, and /recent,
// /slow and the /traces pair (traces.go) filter the recorder's one ring of
// the last 256 finished requests. The whole group exists only when
// Config.EnableDebug is set (strongsimd -debug); without it the paths
// answer the ordinary 404.

// ActiveQueryJSON is one in-flight query, as served by GET /v1/debug/queries.
type ActiveQueryJSON struct {
	// RequestID is the id the query is registered under — the X-Request-Id
	// it travelled with, possibly suffixed "#n" to disambiguate concurrent
	// duplicates. It is the handle DELETE takes.
	RequestID string `json:"request_id"`
	// Kind is the serving path: "match", "stream" or "standing"
	// (standing-query registration).
	Kind string `json:"kind"`
	// Digest fingerprints the query shape (pattern + mode), so an operator
	// can group entries without reading whole patterns.
	Digest string `json:"digest"`
	// TraceID names the request's trace — the pivot into
	// /v1/debug/traces/{trace_id} once it completes and is kept. Empty when
	// tracing is off.
	TraceID   string    `json:"trace_id,omitempty"`
	Stage     string    `json:"stage"`
	StartedAt time.Time `json:"started_at"`
	ElapsedMS float64   `json:"elapsed_ms"`
	// BallsEvaluated counts the balls whose outcome the query has collected
	// so far: the counter query_stats.balls_built reports at completion.
	BallsEvaluated int64 `json:"balls_evaluated"`
}

// QueryRecordJSON is one completed query, as served by
// GET /v1/debug/queries/recent and /slow.
type QueryRecordJSON struct {
	RequestID string `json:"request_id"`
	Kind      string `json:"kind"`
	Digest    string `json:"digest"`
	// TraceID links the record to GET /v1/debug/traces/{trace_id} when the
	// trace survived tail sampling. Empty when tracing is off.
	TraceID string `json:"trace_id,omitempty"`
	// Outcome is "ok", "cancelled", "deadline" or "error".
	Outcome   string          `json:"outcome"`
	Error     string          `json:"error,omitempty"`
	StartedAt time.Time       `json:"started_at"`
	LatencyMS float64         `json:"latency_ms"`
	Matches   int             `json:"matches"`
	Stats     *QueryStatsJSON `json:"query_stats,omitempty"`
}

func (s *server) handleDebugActive(w http.ResponseWriter, r *http.Request) {
	active := s.recorder.Active()
	out := make([]ActiveQueryJSON, 0, len(active))
	for _, a := range active {
		out = append(out, ActiveQueryJSON{
			RequestID:      a.RequestID,
			Kind:           a.Kind,
			Digest:         a.Digest,
			TraceID:        a.TraceID,
			Stage:          a.Stage.String(),
			StartedAt:      a.Start,
			ElapsedMS:      msOf(a.Elapsed),
			BallsEvaluated: a.Balls,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDebugRecent serves the records with a query part.
func (s *server) handleDebugRecent(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, recordsJSON(s.recorder.Records((*obs.Record).HasQuery)))
}

// handleDebugSlow serves the records whose query reached the slow threshold.
func (s *server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, recordsJSON(s.recorder.Records(func(rec *obs.Record) bool {
		return rec.HasQuery() && rec.Query.Slow
	})))
}

func (s *server) handleDebugCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("request_id")
	if !s.recorder.Cancel(id) {
		writeError(w, Errorf(http.StatusNotFound, CodeNotFound, "no in-flight query %q", id))
		return
	}
	// The cancelled query winds down on its own goroutine and records its
	// outcome through its own completion path; 204 only promises the cancel
	// was delivered.
	w.WriteHeader(http.StatusNoContent)
}

func recordsJSON(recs []obs.Record) []QueryRecordJSON {
	out := make([]QueryRecordJSON, 0, len(recs))
	for i := range recs {
		q := &recs[i].Query
		rj := QueryRecordJSON{
			RequestID: recs[i].RequestID,
			Kind:      q.Kind,
			Digest:    q.Digest,
			Outcome:   q.Outcome,
			Error:     q.Error,
			StartedAt: q.Start,
			LatencyMS: msOf(q.Latency),
			Matches:   q.Matches,
			Stats:     FromQueryStats(&q.Stats),
		}
		if id := recs[i].TraceID; !id.IsZero() {
			rj.TraceID = id.String()
		}
		out = append(out, rj)
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// trace returns the query's observation record: one is allocated when the
// caller asked for stats, the recorder is on, or the request carries
// a trace (whose root span then parents the engine's stage spans and any
// fan-out spans); nil otherwise — the allocation-free path the AllocsPerRun
// guards pin.
func (s *server) trace(r *http.Request, stats bool) *obs.QueryStats {
	ri := reqInfo(r.Context())
	traced := ri != nil && ri.root.Recording()
	if !stats && s.recorder == nil && !traced {
		return nil
	}
	tr := new(obs.QueryStats)
	if traced {
		tr.Root = ri.root
	}
	return tr
}

// flightStart registers one query with the recorder under the request's
// id, fingerprinted by digest, and hands the flight to the middleware,
// which finishes it if the handler does not. With the recorder off it calls
// nothing and returns a nil Flight whose Finish is a no-op, so the serving
// path pays for no digest.
func (s *server) flightStart(r *http.Request, kind string, digest func() string, cancel context.CancelFunc, trace *obs.QueryStats) *obs.Flight {
	if s.recorder == nil {
		return nil
	}
	ri := reqInfo(r.Context())
	var id string
	if ri != nil {
		id = ri.id
	}
	fl := s.recorder.StartFlight(id, kind, digest(), cancel, trace)
	if ri != nil {
		ri.flight = fl
	}
	return fl
}

// failFlight finishes a flight with the outcome matching a wire error and
// writes the error — the shared failure path of the buffered match
// handlers.
func (s *server) failFlight(w http.ResponseWriter, fl *obs.Flight, aerr *Error) {
	fl.Finish(outcomeForCode(aerr.Code), aerr.Message, 0)
	writeError(w, aerr)
}

// outcomeForCode maps a wire error code to the flight-recorder outcome.
func outcomeForCode(code string) string {
	switch code {
	case CodeCancelled:
		return obs.OutcomeCancelled
	case CodeDeadlineExceeded:
		return obs.OutcomeDeadline
	default:
		return obs.OutcomeError
	}
}

// digest fingerprints a match request's query shape — pattern source
// plus the option fields that change what work runs (canonical mode,
// radius, limit, top_k, metric) — as 16 hex chars of FNV-1a, so
// flight-recorder entries group by shape without carrying whole patterns.
func (req *MatchRequest) digest() string {
	h := fnv.New64a()
	q := &req.Query
	metric := q.Metric
	if metric == "" {
		metric = MetricDefault
	}
	_, _ = fmt.Fprintf(h, "%s|%d|%d|%d|%s", q.mode(), q.Radius, q.Limit, q.TopK, metric)
	if req.PatternText != "" {
		_, _ = io.WriteString(h, "|t|"+req.PatternText)
	} else if req.Pattern != nil {
		b, _ := json.Marshal(req.Pattern)
		_, _ = io.WriteString(h, "|p|")
		_, _ = h.Write(b)
	}
	return hexU64(h.Sum64())
}

// textDigest is MatchRequest.digest for pattern-text registrations.
func textDigest(text string) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, "standing|"+text)
	return hexU64(h.Sum64())
}

func hexU64(v uint64) string {
	const digits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = digits[v&0xf]
		v >>= 4
	}
	return string(buf[:])
}
