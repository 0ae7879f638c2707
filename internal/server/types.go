package server

import "dprle/internal/solvecache"

// Wire types of the dprled HTTP/JSON protocol. Every response body is one
// of SolveResponse (the solve ran, possibly degraded), ErrorResponse (the
// request was rejected or failed), or StatusResponse (/statusz).

// SolveRequest is the POST /solve body when Content-Type is
// application/json. A text/plain (or absent) Content-Type instead treats
// the whole body as the System source with default options, which keeps
// `curl --data-binary @file.dprle` working.
type SolveRequest struct {
	// System is the constraint system in the textio format.
	System string `json:"system"`
	// Options tunes the solve, within the server's policy clamps.
	Options RequestOptions `json:"options"`
}

// RequestOptions mirrors core.Options for the wire. Zero values mean the
// server defaults; MaxStates/MaxSteps/TimeoutMS are clamped to the
// server's configured ceilings, never raised above them.
type RequestOptions struct {
	MaxSolutions int   `json:"max_solutions,omitempty"`
	MaxStates    int64 `json:"max_states,omitempty"`
	MaxSteps     int64 `json:"max_steps,omitempty"`
	TimeoutMS    int64 `json:"timeout_ms,omitempty"`
}

// VarSolution is one variable of one disjunctive assignment.
type VarSolution struct {
	// Witness is a shortest member of the variable's language.
	Witness string `json:"witness"`
	// States is the size of the solution machine.
	States int `json:"states"`
}

// Usage reports the resources the solve consumed (Result.Usage).
type Usage struct {
	States    int64 `json:"states"`
	Steps     int64 `json:"steps"`
	Exhausted bool  `json:"exhausted"`
}

// Degraded describes a budget trip: which bound tripped and at which
// pipeline stage. Present only when the solve exhausted a resource.
type Degraded struct {
	Kind  string `json:"kind"`
	Stage string `json:"stage"`
}

// Solve statuses.
const (
	// StatusSat: at least one satisfying assignment was found. With a
	// Degraded marker the enumeration is incomplete but every returned
	// assignment is verified.
	StatusSat = "sat"
	// StatusUnsat: the system provably has no all-nonempty assignment.
	// Never combined with Degraded — an exhausted empty solve is unknown.
	StatusUnsat = "unsat"
	// StatusUnknown: the budget tripped before anything was proven.
	StatusUnknown = "unknown"
)

// SolveResponse is the success body of POST /solve (HTTP 200).
type SolveResponse struct {
	Status      string                   `json:"status"` // sat | unsat | unknown
	Assignments []map[string]VarSolution `json:"assignments,omitempty"`
	Truncated   bool                     `json:"truncated,omitempty"`
	Usage       Usage                    `json:"usage"`
	Degraded    *Degraded                `json:"degraded,omitempty"`
}

// Error codes.
const (
	CodeParseError = "parse_error" // 400: the system source did not parse
	CodeBadRequest = "bad_request" // 400: malformed JSON, oversized body, bad options
	CodeQueueFull  = "queue_full"  // 429: admission control shed the request
	CodeDraining   = "draining"    // 503: the server is shutting down
	CodeInternal   = "internal"    // 500: a panic was isolated; see IncidentID
)

// ErrorResponse is the body of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// IncidentID correlates an isolated panic with the server log line
	// holding its stack trace.
	IncidentID string `json:"incident_id,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// StatusResponse is the GET /statusz body.
type StatusResponse struct {
	State         string  `json:"state"` // accepting | draining | drained
	Workers       int     `json:"workers"`
	QueueLen      int     `json:"queue_len"`
	QueueCap      int     `json:"queue_cap"`
	InFlight      int64   `json:"in_flight"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Requests    int64 `json:"requests"`
	Sat         int64 `json:"sat"`
	Unsat       int64 `json:"unsat"`
	Unknown     int64 `json:"unknown"`
	Exhausted   int64 `json:"exhausted"`
	Shed        int64 `json:"shed"`
	Panics      int64 `json:"panics"`
	ParseErrors int64 `json:"parse_errors"`
	Canceled    int64 `json:"canceled"`

	// CacheHits/CacheMisses count response-cache lookups; Collapsed
	// counts requests that shared another request's in-flight solve.
	// Cache snapshots the shared solve cache (response bodies plus the
	// solver's per-component entries).
	CacheHits   int64            `json:"cache_hits"`
	CacheMisses int64            `json:"cache_misses"`
	Collapsed   int64            `json:"collapsed"`
	Cache       solvecache.Stats `json:"cache"`
}
