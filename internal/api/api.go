// Package api pins the /v1 wire conventions every HTTP surface of the
// daemon follows — the service's client-facing endpoints and the fleet's
// coordinator↔worker protocol alike:
//
//   - every JSON body carries "api_version";
//   - every non-2xx response is the uniform error envelope
//     {"api_version","error":{"code","message","field"}};
//   - X-Request-Id identifies a request end to end: minted at the edge,
//     propagated coordinator→worker on dispatch, and echoed back on the
//     response so one campaign's fan-out correlates across daemons.
//
// The package exists so the service and fleet layers cannot drift: both
// render errors through WriteError, so an envelope-shape change is one
// edit, and a fleet client can parse a worker's 401 with the same code
// it uses for the coordinator's 429.
package api

import (
	"encoding/json"
	"net/http"
)

// Version stamps every /v1 JSON body (views, listings, error envelopes,
// stream events) so clients can detect surface changes without relying
// on response headers.
const Version = "v1"

// RequestIDHeader carries the request id minted at the submitting edge.
// The coordinator forwards it on every dispatch, and the serving side
// echoes it back, so one campaign's cells correlate across
// the whole fleet.
const RequestIDHeader = "X-Request-Id"

// Error is the machine-readable error payload carried by every non-2xx
// /v1 response (fleet endpoints included).
type Error struct {
	// Code is a stable, grep-able identifier: invalid_request,
	// unknown_kind, invalid_param, queue_full, draining, not_found,
	// job_failed, job_canceled, job_not_finished, unauthenticated,
	// engine_skew, plan_mismatch, over_capacity, internal.
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Field names the offending parameter for validation failures, as a
	// path into the request body (e.g. "params.mix", "url").
	Field string `json:"field,omitempty"`
}

// ErrorEnvelope is the wire form of a failed request.
type ErrorEnvelope struct {
	APIVersion string `json:"api_version"`
	Error      Error  `json:"error"`
}

// WriteJSON writes v as an indented JSON body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes the uniform error envelope.
func WriteError(w http.ResponseWriter, status int, code, field, msg string) {
	WriteJSON(w, status, ErrorEnvelope{
		APIVersion: Version,
		Error:      Error{Code: code, Message: msg, Field: field},
	})
}

// EchoRequestID mirrors an inbound X-Request-Id onto the response, the
// serving half of the propagation contract. Call before writing the
// status line.
func EchoRequestID(w http.ResponseWriter, r *http.Request) {
	if rid := r.Header.Get(RequestIDHeader); rid != "" {
		w.Header().Set(RequestIDHeader, rid)
	}
}
