package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreakerTransitions walks the state machine deterministically:
// closed → open at Threshold consecutive failures, rejecting during
// cooldown, half-open trial after cooldown, success closing / failure
// re-opening, and a success streak resetting the failure count. Run
// under -race in CI together with the concurrent hammer below.
func TestBreakerTransitions(t *testing.T) {
	cfg := BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond}
	b := newBreaker(cfg)

	fail := func() {
		t.Helper()
		release, ok := b.Admit()
		if !ok {
			t.Fatal("closed breaker refused admission")
		}
		release(false)
	}
	succeed := func() {
		t.Helper()
		release, ok := b.Admit()
		if !ok {
			t.Fatal("breaker refused admission")
		}
		release(true)
	}

	// A success between failures resets the consecutive count.
	fail()
	fail()
	succeed()
	fail()
	fail()
	if state, _ := b.peek(); state != breakerClosed {
		t.Fatalf("state after 2 consecutive failures = %v, want closed", state)
	}
	fail()
	if state, _ := b.peek(); state != breakerOpen {
		t.Fatalf("state after %d consecutive failures = %v, want open", cfg.Threshold, state)
	}
	if _, ok := b.Admit(); ok {
		t.Fatal("open breaker admitted during cooldown")
	}

	// After cooldown the next Admit is a half-open trial; its failure
	// re-opens with a fresh cooldown.
	time.Sleep(cfg.Cooldown + 10*time.Millisecond)
	release, ok := b.Admit()
	if !ok {
		t.Fatal("cooled-down breaker refused trial")
	}
	if state, _ := b.peek(); state != breakerHalfOpen {
		t.Fatalf("state during trial = %v, want half-open", state)
	}
	// One trial at a time: a second concurrent one must be refused.
	if _, ok := b.Admit(); ok {
		t.Fatal("half-open breaker admitted a second trial")
	}
	release(false)
	if state, _ := b.peek(); state != breakerOpen {
		t.Fatalf("state after failed trial = %v, want open", state)
	}
	if _, ok := b.Admit(); ok {
		t.Fatal("re-opened breaker admitted during fresh cooldown")
	}

	// A successful trial closes the breaker and traffic resumes.
	time.Sleep(cfg.Cooldown + 10*time.Millisecond)
	succeed()
	if state, allows := b.peek(); state != breakerClosed || !allows {
		t.Fatalf("state after successful trial = %v (allows %v), want closed", state, allows)
	}
	succeed()

	if snap := b.snapshot(); snap.Opens != 2 || snap.State != "closed" {
		t.Errorf("snapshot = %+v, want 2 opens, closed", snap)
	}
}

// TestBreakerConcurrent hammers one breaker from many goroutines with
// mixed outcomes while others poll peek/snapshot — the state machine's
// invariants (never more than one half-open trial, release callbacks safe
// after state changes) must hold under the race detector.
func TestBreakerConcurrent(t *testing.T) {
	// Concurrent requests at a cooled-down breaker: exactly one of them
	// is its trial, however many arrive together.
	const callers = 16
	burst := newBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Millisecond})
	for round := 0; round < 20; round++ {
		release, ok := burst.Admit()
		if !ok {
			t.Fatalf("round %d: breaker refused admission before the burst", round)
		}
		release(false) // opens: Threshold 1
		time.Sleep(2 * time.Millisecond)
		var admitted atomic.Int64
		var releases [callers]func(bool)
		var start, wg sync.WaitGroup
		start.Add(1)
		for i := range releases {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				if release, ok := burst.Admit(); ok {
					admitted.Add(1)
					releases[i] = release
				}
			}()
		}
		start.Done()
		wg.Wait()
		if n := admitted.Load(); n != 1 {
			t.Fatalf("round %d: %d concurrent half-open trials, want 1", round, n)
		}
		for _, release := range releases {
			if release != nil {
				release(true) // closes
			}
		}
		if state, _ := burst.peek(); state != breakerClosed {
			t.Fatalf("round %d: state after a successful trial = %v, want closed", round, state)
		}
	}

	b := newBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if release, ok := b.Admit(); ok {
					release(i%3 != 0)
				}
				b.peek()
				if i%50 == 0 {
					b.snapshot()
					time.Sleep(time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()

	// Whatever state the hammer left it in, the breaker must recover:
	// wait out a cooldown and drive successful trials until closed.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if release, ok := b.Admit(); ok {
			release(true)
		}
		if state, _ := b.peek(); state == breakerClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker did not recover to closed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
