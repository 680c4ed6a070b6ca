package copse

import (
	"fmt"
	"time"
)

// This file is the serving-failure taxonomy (DESIGN.md §15): the typed
// errors the resilient serving stack returns instead of hanging,
// crashing, or collapsing every failure into an untyped 500. Each type
// maps to one HTTP status, in the one writer (cluster.WriteError) that
// copse-serve and the cluster worker and gateway handlers all answer
// through:
//
//	*OverloadError         → 429 Too Many Requests (+ Retry-After)
//	*DeadlineError         → 504 Gateway Timeout
//	*UnknownModelError     → 404 Not Found
//	*FeatureError          → 400 Bad Request
//	*InternalError         → 500 Internal Server Error
//	cluster.ShardError     → 502 Bad Gateway
//	cluster.ModelUnavailableError → 503 Service Unavailable

// UnknownModelError is the typed refusal of a call naming a model the
// node does not serve: one no Service registered, no worker behind a
// gateway stages, or the worker asked does not hold.
type UnknownModelError struct {
	Model string
}

func (e *UnknownModelError) Error() string {
	return fmt.Sprintf("copse: unknown model %q", e.Model)
}

// OverloadError is the typed load-shedding rejection: the service's
// in-flight slots are all busy and the shed-queue bound (WithShedQueue)
// is already full of waiters, so admitting the call would only grow an
// unserviceable backlog. Callers should back off for RetryAfter and
// retry; the work was rejected before any homomorphic op was spent.
type OverloadError struct {
	// Model is the model the rejected call addressed.
	Model string
	// Queued is the number of calls already waiting for a slot.
	Queued int
	// RetryAfter estimates when a slot is likely to be free (queue depth
	// times the model's observed pass latency over the in-flight width);
	// zero when the service has no latency history yet.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("copse: model %q overloaded (%d calls queued); retry in %v", e.Model, e.Queued, e.RetryAfter)
}

// DeadlineError is the typed fail-fast rejection for a request whose
// remaining context budget cannot cover the work ahead of it: burning
// an expensive homomorphic pass that is doomed to miss its deadline
// wastes server work and leaks timing, so the stack rejects it before
// the stage starts instead of during it.
type DeadlineError struct {
	// Stage names the pipeline stage that could not fit the budget
	// ("admit", "encrypt", "fanout", "merge", "decode").
	Stage string
	// Remaining is the budget left when the check ran.
	Remaining time.Duration
	// Needed is the estimated (or minimum) cost of the remaining work;
	// zero when the budget was already exhausted outright.
	Needed time.Duration
}

func (e *DeadlineError) Error() string {
	if e.Needed > 0 {
		return fmt.Sprintf("copse: deadline cannot cover %s stage (%v remaining, ~%v needed)", e.Stage, e.Remaining, e.Needed)
	}
	return fmt.Sprintf("copse: deadline exhausted before %s stage (%v remaining)", e.Stage, e.Remaining)
}

// InternalError is a panic recovered inside a serving goroutine —
// a batcher pass, a worker-pool fan-out, or the classification pipeline
// itself — converted into a per-request failure so one poisoned request
// cannot take down the process (and every other in-flight request) with
// it. The panic value and stack are preserved for diagnosis.
type InternalError struct {
	// Op names where the panic was recovered ("classify", "batcher",
	// "shard fan-out", ...).
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("copse: internal error in %s: recovered panic: %v", e.Op, e.Value)
}
