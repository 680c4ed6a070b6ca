package cluster

import (
	"sync"
	"time"
)

// BreakerConfig tunes the per-worker circuit breakers guarding the
// gateway's data plane (DESIGN.md §15).
type BreakerConfig struct {
	// Threshold is the number of consecutive data-path failures that
	// opens the breaker (default 3).
	Threshold int
	// Cooldown is how long an open breaker rejects traffic before
	// admitting one half-open trial request (default 5s).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	return c
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-worker circuit breaker: closed (normal traffic) →
// open after Threshold consecutive data-path failures (reject
// immediately, sparing the fleet doomed round trips and the worker a
// retry storm) → half-open after Cooldown (admit one trial and nothing
// else while it runs; its success closes, its failure re-opens). It
// replaces the old one-way markDown-until-next-Refresh: a worker that
// recovers gets traffic back at the next cooldown without waiting for
// a probe cycle or a manual Refresh.
type breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       breakerState
	consecutive int       // consecutive failures while closed
	openedAt    time.Time // last transition into open
	opens       int64     // cumulative open transitions (stats)
}

func newBreaker(cfg BreakerConfig) *breaker {
	return &breaker{cfg: cfg.withDefaults()}
}

// openLocked transitions to open (from any state) stamping now.
func (b *breaker) openLocked(now time.Time) {
	b.state = breakerOpen
	b.openedAt = now
	b.consecutive = 0
	b.opens++
}

// Admit asks to send one request through the breaker. When admitted it
// returns a release callback the caller MUST invoke with the request's
// health outcome (ok=true for success — or for failures that say
// nothing about worker health, like an attempt whose caller gave up or a
// 4xx).
func (b *breaker) Admit() (release func(ok bool), admitted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return b.releaseClosed, true
	case breakerOpen:
		if time.Since(b.openedAt) < b.cfg.Cooldown {
			return nil, false
		}
		// Half-open is the flag of the one trial in flight: it admits
		// nothing else until the trial settles.
		b.state = breakerHalfOpen
		return b.releaseTrial, true
	default: // half-open
		return nil, false
	}
}

// releaseClosed settles a request admitted while closed. The state may
// have moved on (another request opened the breaker, a trial closed it
// again); outcomes only count against the state they were admitted in.
func (b *breaker) releaseClosed(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerClosed {
		return
	}
	if ok {
		b.consecutive = 0
		return
	}
	if b.consecutive++; b.consecutive >= b.cfg.Threshold {
		b.openLocked(time.Now())
	}
}

// releaseTrial settles a half-open trial: success closes the breaker,
// failure re-opens it with a fresh cooldown.
func (b *breaker) releaseTrial(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerHalfOpen {
		return
	}
	if ok {
		b.state = breakerClosed
		b.consecutive = 0
	} else {
		b.openLocked(time.Now())
	}
}

// peek reports the current state and whether a request would currently
// be admitted, without mutating anything — the routing layer uses it
// to compute model availability and holder preference order.
func (b *breaker) peek() (state breakerState, allows bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return breakerClosed, true
	case breakerOpen:
		return breakerOpen, time.Since(b.openedAt) >= b.cfg.Cooldown
	default: // its one trial is in flight
		return breakerHalfOpen, false
	}
}

// allows reports whether a request would currently be admitted.
func (b *breaker) allows() bool {
	_, ok := b.peek()
	return ok
}

// BreakerSnapshot is one worker's breaker state for stats reporting.
type BreakerSnapshot struct {
	State string `json:"state"`
	// ConsecutiveFailures is the current closed-state failure streak.
	ConsecutiveFailures int `json:"consecutiveFailures,omitempty"`
	// Opens counts closed/half-open → open transitions since startup.
	Opens int64 `json:"opens,omitempty"`
}

func (b *breaker) snapshot() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{
		State:               b.state.String(),
		ConsecutiveFailures: b.consecutive,
		Opens:               b.opens,
	}
}
