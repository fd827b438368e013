package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/live"
	"repro/internal/obs"
)

// The handlers that change the store: /v1/update and the /v1/queries
// standing-query tree.

// toMutation validates one wire mutation and lowers it to the store's
// form. i names the mutation in error messages.
func (m MutationJSON) toMutation(i int) (live.Mutation, error) {
	out := live.Mutation{Op: live.Op(m.Op)}
	switch out.Op {
	case live.OpAddNode:
		if m.Label == nil {
			return out, fmt.Errorf("updates[%d]: add_node requires \"label\"", i)
		}
		out.Label = *m.Label
	case live.OpInsertEdge, live.OpDeleteEdge:
		if m.U == nil || m.V == nil {
			return out, fmt.Errorf("updates[%d]: %s requires \"u\" and \"v\"", i, m.Op)
		}
		out.U, out.V = *m.U, *m.V
	case live.OpDeleteNode:
		if m.Node == nil {
			return out, fmt.Errorf("updates[%d]: delete_node requires \"node\"", i)
		}
		out.Node = *m.Node
	case live.OpSetLabel:
		if m.Node == nil || m.Label == nil {
			return out, fmt.Errorf("updates[%d]: set_label requires \"node\" and \"label\"", i)
		}
		out.Node, out.Label = *m.Node, *m.Label
	default:
		return out, fmt.Errorf("updates[%d]: unknown op %q", i, m.Op)
	}
	return out, nil
}

// FromMutation is the wire form of a store mutation, the inverse of
// toMutation: what a router forwards to its replicas.
func FromMutation(m live.Mutation) MutationJSON {
	switch m.Op {
	case live.OpAddNode:
		return AddNode(m.Label)
	case live.OpInsertEdge:
		return InsertEdge(m.U, m.V)
	case live.OpDeleteEdge:
		return DeleteEdge(m.U, m.V)
	case live.OpDeleteNode:
		return DeleteNode(m.Node)
	case live.OpSetLabel:
		return SetLabel(m.Node, m.Label)
	}
	return MutationJSON{Op: string(m.Op)}
}

func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	// Strict: a misspelled mutation field must answer 400, not silently
	// target node 0.
	if aerr := s.decode(w, r, &req, true); aerr != nil {
		writeError(w, aerr)
		return
	}
	muts := make([]live.Mutation, 0, len(req.Updates))
	for i, mw := range req.Updates {
		m, err := mw.toMutation(i)
		if err != nil {
			writeError(w, Errorf(http.StatusBadRequest, CodeInvalidMutation, "%v", err))
			return
		}
		muts = append(muts, m)
	}
	var root obs.Span
	if ri := reqInfo(r.Context()); ri != nil {
		root = ri.root
	}
	start := time.Now()
	resp, err := s.backend.Update(r.Context(), muts, root)
	if err != nil {
		var aerr *Error
		if !errors.As(err, &aerr) { // the store's verdict on the batch
			aerr = Errorf(http.StatusBadRequest, CodeInvalidMutation, "%v", err)
		}
		writeError(w, aerr)
		return
	}
	resp.ElapsedMS = msOf(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// registerText resolves the pattern source of a register request to the
// text form the store keeps.
func registerText(req *RegisterRequest) (string, *Error) {
	switch {
	case req.Pattern != nil && req.PatternText != "":
		return "", Errorf(http.StatusBadRequest, CodeInvalidRequest,
			`"pattern" and "pattern_text" are mutually exclusive`)
	case req.Pattern != nil:
		text, err := req.Pattern.Text()
		if err != nil {
			return "", patternError(err)
		}
		return text, nil
	case req.PatternText != "":
		return req.PatternText, nil
	default:
		return "", Errorf(http.StatusBadRequest, CodeInvalidRequest, "missing pattern")
	}
}

func (s *server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if aerr := s.decode(w, r, &req, false); aerr != nil {
		writeError(w, aerr)
		return
	}
	text, aerr := registerText(&req)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	// Registration runs a full initial evaluation — the same work as a
	// match over every candidate center — so it is tracked and cancellable
	// like one. No deadline is imposed (registrations were never bounded);
	// cancellation comes from the client going away or an operator DELETE.
	// Update-driven maintenance is deliberately not tracked: cancelling it
	// mid-way would leave a standing query's per-center cache half-updated.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	trace := s.trace(r, false)
	fl := s.flightStart(r, "standing", func() string { return textDigest(text) }, cancel, trace)
	sq, err := s.store.RegisterCtx(ctx, text, trace)
	if err != nil {
		if ctx.Err() != nil {
			s.failFlight(w, fl, matchError(ctx.Err()))
			return
		}
		s.failFlight(w, fl, Errorf(http.StatusBadRequest, CodeInvalidPattern, "%v", err))
		return
	}
	qj := queryJSON(sq, false)
	fl.Finish(obs.OutcomeOK, "", qj.NumMatches)
	writeJSON(w, http.StatusCreated, qj)
}

func (s *server) handleListQueries(w http.ResponseWriter, r *http.Request) {
	qs := s.store.Queries()
	out := make([]QueryJSON, 0, len(qs))
	for _, sq := range qs {
		out = append(out, queryJSON(sq, false))
	}
	writeJSON(w, http.StatusOK, out)
}

// queryByID resolves the {id} path segment to a standing query, writing
// the error response itself when it can't.
func (s *server) queryByID(w http.ResponseWriter, r *http.Request) *live.StandingQuery {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, Errorf(http.StatusBadRequest, CodeInvalidRequest,
			"bad query id %q", r.PathValue("id")))
		return nil
	}
	sq := s.store.Query(id)
	if sq == nil {
		writeError(w, Errorf(http.StatusNotFound, CodeNotFound, "no standing query %d", id))
		return nil
	}
	return sq
}

func (s *server) handleGetQuery(w http.ResponseWriter, r *http.Request) {
	sq := s.queryByID(w, r)
	if sq == nil {
		return
	}
	writeJSON(w, http.StatusOK, queryJSON(sq, true))
}

func (s *server) handleDelta(w http.ResponseWriter, r *http.Request) {
	sq := s.queryByID(w, r)
	if sq == nil {
		return
	}
	added, removed, from, to := sq.Delta()
	writeJSON(w, http.StatusOK, DeltaJSON{
		ID:          sq.ID(),
		FromVersion: from,
		Version:     to,
		Added:       FromSubgraphs(added),
		Removed:     FromSubgraphs(removed),
	})
}

func (s *server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, Errorf(http.StatusBadRequest, CodeInvalidRequest,
			"bad query id %q", r.PathValue("id")))
		return
	}
	if !s.store.Unregister(id) {
		writeError(w, Errorf(http.StatusNotFound, CodeNotFound, "no standing query %d", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func queryJSON(sq *live.StandingQuery, includeMatches bool) QueryJSON {
	res, ver := sq.Result()
	qj := QueryJSON{
		ID:         sq.ID(),
		Pattern:    sq.Source(),
		Radius:     sq.Radius(),
		Version:    ver,
		NumMatches: res.Len(),
	}
	if includeMatches {
		qj.Matches = FromSubgraphs(res.Subgraphs)
	}
	return qj
}
