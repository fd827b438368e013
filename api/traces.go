package api

import (
	"net/http"
	"sort"
	"time"

	"repro/internal/obs"
)

// The /v1/debug/traces pair: the records of the server's obs.Recorder that
// hold a kept trace. GET /v1/debug/traces lists them newest first
// (tail-sampled: slow, errored, or head-sampled requests), and GET
// /v1/debug/traces/{trace_id} serves the newest one with that id as its
// full span tree. A query's record and its kept trace are one record, so
// /v1/debug/queries/recent carries the trace_id that pivots here. Like the
// rest of the debug group, the routes exist only when Config.EnableDebug is
// set.

// TraceSummaryJSON is one kept trace, as listed by GET /v1/debug/traces.
type TraceSummaryJSON struct {
	// TraceID is the 32-hex-digit W3C trace id — the handle the detail
	// route takes, and the value flight-recorder entries link with.
	TraceID   string `json:"trace_id"`
	RequestID string `json:"request_id,omitempty"`
	// Root names the root span ("POST /v1/match").
	Root string `json:"root"`
	// Reason is why tail sampling kept the trace: "error", "slow" or
	// "sampled".
	Reason     string    `json:"reason"`
	StartedAt  time.Time `json:"started_at"`
	DurationMS float64   `json:"duration_ms"`
	// Spans is the number of spans the trace holds.
	Spans int `json:"spans"`
}

// TraceJSON is one kept trace with its span tree, as served by
// GET /v1/debug/traces/{trace_id}.
type TraceJSON struct {
	TraceID   string `json:"trace_id"`
	RequestID string `json:"request_id,omitempty"`
	// ParentSpanID is the remote parent from the incoming traceparent
	// header, absent when the trace was minted by this server.
	ParentSpanID string    `json:"parent_span_id,omitempty"`
	Reason       string    `json:"reason"`
	StartedAt    time.Time `json:"started_at"`
	DurationMS   float64   `json:"duration_ms"`
	// Root is the root span's subtree — every span of the trace, nested.
	Root *SpanJSON `json:"root"`
}

// SpanJSON is one span in a trace's tree. Children are ordered by start
// time.
type SpanJSON struct {
	SpanID string `json:"span_id"`
	Name   string `json:"name"`
	// Status is absent for success; otherwise the failure kind ("error",
	// "cancelled", "deadline").
	Status     string    `json:"status,omitempty"`
	StartedAt  time.Time `json:"started_at"`
	DurationMS float64   `json:"duration_ms"`
	// Attrs are the span's integer annotations (balls evaluated, matches
	// returned, mutations applied).
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []SpanJSON       `json:"children,omitempty"`
}

func (s *server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	kept := s.recorder.Records((*obs.Record).Kept)
	out := make([]TraceSummaryJSON, 0, len(kept))
	for i := range kept {
		tp := &kept[i].Trace
		out = append(out, TraceSummaryJSON{
			TraceID:    kept[i].TraceID.String(),
			RequestID:  kept[i].RequestID,
			Root:       tp.RootName,
			Reason:     tp.Reason,
			StartedAt:  tp.Start,
			DurationMS: msOf(tp.Duration),
			Spans:      len(tp.Spans),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("trace_id")
	rec, ok := s.recorder.Lookup(id)
	if !ok {
		writeError(w, Errorf(http.StatusNotFound, CodeNotFound, "no kept trace %q", id))
		return
	}
	tp := &rec.Trace
	tj := TraceJSON{
		TraceID:    rec.TraceID.String(),
		RequestID:  rec.RequestID,
		Reason:     tp.Reason,
		StartedAt:  tp.Start,
		DurationMS: msOf(tp.Duration),
		Root:       spanTree(tp),
	}
	if !tp.Parent.IsZero() {
		tj.ParentSpanID = tp.Parent.String()
	}
	writeJSON(w, http.StatusOK, tj)
}

// spanTree assembles the flat span list into the root span's subtree via
// the parent links. A span whose parent is missing from the record (it
// never Ended — a crashed goroutine) is grafted under the root so nothing
// recorded is ever dropped from the view.
func spanTree(rec *obs.TracePart) *SpanJSON {
	nodes := make(map[obs.SpanID]*SpanJSON, len(rec.Spans))
	for i := range rec.Spans {
		sr := &rec.Spans[i]
		sj := &SpanJSON{
			SpanID:     sr.ID.String(),
			Name:       sr.Name,
			Status:     sr.Status,
			StartedAt:  sr.Start,
			DurationMS: msOf(sr.Duration),
		}
		if len(sr.Attrs) > 0 {
			sj.Attrs = make(map[string]int64, len(sr.Attrs))
			for _, a := range sr.Attrs {
				sj.Attrs[a.Key] = a.Value
			}
		}
		nodes[sr.ID] = sj
	}
	root := nodes[rec.Root]
	if root == nil {
		// Defensive: a kept trace always holds its root span (ending the
		// root is what finishes the trace), but never serve a nil tree.
		root = &SpanJSON{SpanID: rec.Root.String(), Name: rec.RootName,
			StartedAt: rec.Start, DurationMS: msOf(rec.Duration)}
		nodes[rec.Root] = root
	}
	for i := range rec.Spans {
		sr := &rec.Spans[i]
		if sr.ID == rec.Root {
			continue
		}
		parent := nodes[sr.Parent]
		if parent == nil || parent == nodes[sr.ID] {
			parent = root
		}
		parent.Children = append(parent.Children, *nodes[sr.ID])
	}
	// Children were appended by completion order (End time); present them
	// by start time, the order the work actually began.
	sortChildren(root)
	return root
}

func sortChildren(sj *SpanJSON) {
	sort.SliceStable(sj.Children, func(i, j int) bool {
		return sj.Children[i].StartedAt.Before(sj.Children[j].StartedAt)
	})
	for i := range sj.Children {
		sortChildren(&sj.Children[i])
	}
}
