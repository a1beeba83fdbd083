package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Error codes of the service's JSON error taxonomy. Every non-2xx
// response carries exactly one of these, so clients and the load
// generator can classify failures without parsing prose.
const (
	CodeBadRequest       = "bad_request"        // 400: malformed JSON, bad base64, invalid field
	CodeNotFound         = "not_found"          // 404: unknown route, coder id, or workload
	CodeMethodNotAllowed = "method_not_allowed" // 405: wrong verb on a known route
	CodePayloadTooLarge  = "payload_too_large"  // 413: body over MaxBodyBytes
	CodeUnprocessable    = "unprocessable"      // 422: well-formed input the pipeline rejects
	CodeDeadlineExceeded = "deadline_exceeded"  // 408: per-request deadline expired
	CodeOverloaded       = "overloaded"         // 429: worker pool saturated past the queue deadline
	CodeInternal         = "internal"           // 500: bug — the handler panicked or an invariant broke
)

// APIError is a typed service error: an HTTP status, a machine-readable
// code, and a human-readable message. Handlers return it up to the
// middleware, which owns serialization.
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Errf builds an APIError with a formatted message.
func Errf(status int, code, format string, args ...any) *APIError {
	return &APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// errBadRequest wraps a client-input failure.
func errBadRequest(format string, args ...any) *APIError {
	return Errf(http.StatusBadRequest, CodeBadRequest, format, args...)
}

// errUnprocessable wraps a domain-level rejection of well-formed input.
func errUnprocessable(format string, args ...any) *APIError {
	return Errf(http.StatusUnprocessableEntity, CodeUnprocessable, format, args...)
}

// errorBody is the wire shape of every error response.
type errorBody struct {
	Error *APIError `json:"error"`
}

// asAPIError normalizes any handler error into an APIError: typed errors
// pass through, an oversized body maps to the 413 taxonomy entry, and
// anything else is an internal error (the message is preserved — this is
// a development tool's service, not a secrecy boundary).
func asAPIError(err error) *APIError {
	var api *APIError
	if errors.As(err, &api) {
		return api
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return Errf(http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
			"request body exceeds the %d-byte limit", tooLarge.Limit)
	}
	return Errf(http.StatusInternalServerError, CodeInternal, "%v", err)
}

// WriteJSON serializes v with the given status as one line of compact
// JSON, which the encoder builds once in its pooled buffer and writes
// to w whole; []byte fields go out base64-encoded from that same
// buffer. ccrpd and ccrp-router write every JSON body through it.
// Encoding failures after the header is out cannot be reported to the
// client.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError serializes err through the taxonomy (ccrp-router writes
// its own gateway errors through it too).
func WriteError(w http.ResponseWriter, err error) {
	api := asAPIError(err)
	WriteJSON(w, api.Status, errorBody{Error: api})
}
