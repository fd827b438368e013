package api

import "fmt"

// Machine-readable error codes. Every non-2xx response body is an Error
// whose Code is one of these constants; clients branch on the code, never
// on the human-readable message.
const (
	// CodeInvalidRequest: the request body could not be decoded, or a
	// required field is missing or contradicts another.
	CodeInvalidRequest = "invalid_request"
	// CodeInvalidPattern: the pattern failed to parse or validate (malformed
	// text, unknown node reference, empty or disconnected pattern).
	CodeInvalidPattern = "invalid_pattern"
	// CodeUnsupportedBound: the pattern carries edge bounds other than 1;
	// the strong-simulation endpoints match plain edges only.
	CodeUnsupportedBound = "unsupported_bound"
	// CodeInvalidQuery: the query spec is invalid (unknown mode or metric,
	// negative limit/radius/top_k/deadline, top_k on a streaming endpoint).
	CodeInvalidQuery = "invalid_query"
	// CodeInvalidMutation: an update batch names an unknown op, omits a
	// required field, or references graph state that does not exist.
	CodeInvalidMutation = "invalid_mutation"
	// CodeBodyTooLarge: the request body exceeds the server's byte cap.
	CodeBodyTooLarge = "body_too_large"
	// CodeNotFound: no resource at this path (unknown route or standing
	// query id).
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: the route exists but not for this HTTP method;
	// the Allow header lists the methods that do.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeDeadlineExceeded: the query deadline passed before it finished.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeCancelled: the client went away before the query finished.
	CodeCancelled = "cancelled"
	// CodeUnavailable: the response could not be produced for reasons
	// outside the request (used by clients for undecodable error bodies).
	CodeUnavailable = "unavailable"
	// CodeShardUnavailable: a router could not reach a shard (every replica
	// failed after retries) and the request did not allow partial results.
	// Retryable once the shard recovers.
	CodeShardUnavailable = "shard_unavailable"
	// CodeInternal: a handler panicked; the recovery middleware counted it
	// and answered this instead of dropping the connection. The message
	// carries the request id for log correlation, never the panic value.
	CodeInternal = "internal"
)

// Error is the wire form of every failure: a machine-readable code and a
// human-readable message. It implements error, so the client SDK returns
// decoded server failures directly.
type Error struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message explains the failure for humans.
	Message string `json:"error"`
	// Status is the HTTP status the error travelled with. It is derived
	// from the transport, not the body.
	Status int `json:"-"`
	// RequestID is the X-Request-Id the failing response carried, filled by
	// the client SDK so a failure can be correlated with the server's access
	// log and debug recorder (/v1/debug/queries/recent). Transport
	// metadata, never part of the JSON body.
	RequestID string `json:"-"`
	// TraceID is the trace id from the traceparent the failing response
	// carried, filled by the client SDK — the handle into
	// GET /v1/debug/traces/{trace_id}, where errored requests are always
	// kept by tail sampling. Empty when the server does not trace.
	// Transport metadata, never part of the JSON body.
	TraceID string `json:"-"`
}

// Error renders the code, message and HTTP status.
func (e *Error) Error() string {
	msg := e.Message
	if msg == "" {
		msg = "request failed"
	}
	if e.Status != 0 {
		return fmt.Sprintf("%s (%s, http %d)", msg, e.Code, e.Status)
	}
	return fmt.Sprintf("%s (%s)", msg, e.Code)
}

// Errorf builds an Error with a formatted message.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...), Status: status}
}
