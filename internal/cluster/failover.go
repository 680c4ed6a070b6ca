package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime/debug"
	"time"

	"copse"
)

// errAllBreakersOpen reports a call that could not be attempted at all:
// every holder's circuit breaker refused admission. Distinct from a
// call whose attempts all failed — the decode path uses the distinction
// to decide whether a breaker-bypassing last resort is worth it.
var errAllBreakersOpen = errors.New("cluster: every holder's circuit breaker is open")

// httpStatusError is a non-200 data-plane response, typed so the
// breaker layer can classify it: 5xx says the worker is unhealthy, 4xx
// says the request was at fault (and must not trip the breaker).
type httpStatusError struct {
	Status     int
	StatusLine string // e.g. "503 Service Unavailable"
	Msg        string
	RetryAfter string // Retry-After header of a 429, if the worker sent one
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("%s: %s", e.StatusLine, e.Msg)
}

// breakerSuccess classifies an attempt outcome for breaker accounting:
// only failures that indict the worker count. An attempt whose caller
// gave up (ctx is done) and a 4xx response say nothing about worker
// health.
func breakerSuccess(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return true
	}
	var hs *httpStatusError
	if errors.As(err, &hs) {
		return hs.Status < http.StatusInternalServerError
	}
	return false
}

// sleepCtx sleeps d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jitteredBackoff spreads a base backoff uniformly over [b/2, 3b/2) so
// concurrent retriers do not re-converge on the recovering worker in
// lockstep.
func jitteredBackoff(b time.Duration) time.Duration {
	return b/2 + time.Duration(rand.Int64N(int64(b)))
}

// holderCall runs call against the holders in urls, one attempt at a
// time, under the gateway's resilience policy: per-worker breaker
// admission, immediate failover to the round's next holder on error, and
// up to cfg.Retries extra rounds with exponential backoff and jitter
// between them. Each round tries the holders due a half-open trial first
// (holderOrder), so a recovering worker is re-admitted by live traffic.
// It returns errAllBreakersOpen when no round admitted an attempt, and
// ctx's error once the caller gives up.
func holderCall[T any](g *Gateway, ctx context.Context, urls []string, call func(ctx context.Context, url string) (T, error)) (T, error) {
	var zero T
	if len(urls) == 0 {
		return zero, fmt.Errorf("no holders")
	}
	// attempt runs one admitted call and settles its breaker; a panic in
	// it fails the attempt, not the process.
	attempt := func(url string, release func(ok bool)) (val T, err error) {
		defer func() {
			if r := recover(); r != nil {
				g.panics.Add(1)
				release(false)
				err = &copse.InternalError{Op: "holder attempt", Value: r, Stack: debug.Stack()}
			}
		}()
		val, err = call(ctx, url)
		release(breakerSuccess(ctx, err))
		return val, err
	}
	backoff := g.cfg.RetryBackoff
	var lastErr error
	admittedAny := false
	for round := 0; round <= g.cfg.Retries; round++ {
		if round > 0 {
			g.retries.Add(1)
			if err := sleepCtx(ctx, jitteredBackoff(backoff)); err != nil {
				return zero, err
			}
			backoff = min(2*backoff, 2*time.Second)
		}
		tried := false
		for _, url := range g.holderOrder(urls) {
			release, ok := g.breakerFor(url).Admit()
			if !ok {
				continue
			}
			if tried {
				g.retries.Add(1) // immediate failover within the round
			}
			tried, admittedAny = true, true
			val, err := attempt(url, release)
			if err == nil {
				return val, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return zero, ctx.Err()
			}
		}
		if ctx.Err() != nil {
			break
		}
	}
	if !admittedAny {
		return zero, errAllBreakersOpen
	}
	return zero, lastErr
}

// holderOrder lists the holders whose breakers admit a request now:
// first those due a half-open trial (open past the cooldown, or half-open
// with a trial free), then the closed ones. A recovering worker thus gets
// its trial from the next request that can reach it, not only after every
// healthy holder has failed.
func (g *Gateway) holderOrder(urls []string) []string {
	var trials, closed []string
	for _, url := range urls {
		switch state, allows := g.breakerFor(url).peek(); {
		case !allows:
		case state == breakerClosed:
			closed = append(closed, url)
		default:
			trials = append(trials, url)
		}
	}
	return append(trials, closed...)
}

// stageWeights apportions a request's remaining deadline across the
// pipeline stages of one pass (DESIGN.md §15). Shares are recomputed
// from the live remaining budget at each stage boundary, so slack left
// by a fast stage flows to the stages after it.
var stageWeights = []struct {
	name string
	w    float64
}{
	{"encrypt", 0.15},
	{"fanout", 0.55},
	{"merge", 0.05},
	{"decode", 0.25},
}

// stageBudget derives stage's share of ctx's remaining deadline budget:
// remaining × w(stage) / Σ w(stage..last). Without a deadline it
// returns ctx unchanged. An exhausted budget fails fast with a typed
// *copse.DeadlineError instead of starting work that cannot finish.
func (g *Gateway) stageBudget(ctx context.Context, stage string) (context.Context, context.CancelFunc, error) {
	deadline, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}, nil
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		g.deadlineFails.Add(1)
		return nil, nil, &copse.DeadlineError{Stage: stage, Remaining: remaining}
	}
	var w, sum float64
	seen := false
	for _, s := range stageWeights {
		if s.name == stage {
			seen = true
			w = s.w
		}
		if seen {
			sum += s.w
		}
	}
	if !seen || sum == 0 {
		return ctx, func() {}, nil
	}
	share := time.Duration(float64(remaining) * w / sum)
	sctx, cancel := context.WithDeadline(ctx, time.Now().Add(share))
	return sctx, cancel, nil
}
