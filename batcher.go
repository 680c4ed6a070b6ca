package copse

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// WithBatchWindow enables the dynamic batcher: the in-process aggregator
// that coalesces concurrent ClassifyBatch calls for the same model into
// shared slot-packed homomorphic passes (DESIGN.md §11), with per-slot
// results (under WithShuffle each carrying its codebook) routed back to
// each caller. A pass fires as soon
// as the model's batch capacity (Meta.BatchCapacity) is pending, or when
// the first query of a forming batch has lingered d. A pass's cost is
// not flat in the fill — a lone query's bit planes and level matrices
// ride the idle blocks (DESIGN.md §13.4–13.5) — but a full pass still
// costs far less than one pass per query, so for uncoordinated traffic
// the batcher converts linger time into queries/sec: a request arriving
// alone waits up to d for neighbours; a request arriving into a crowd
// shares its pass and never waits. The benchmark's `batch-saturated`
// workload measures the full-pass side (`copse.batch_fill`,
// `core.pass_ms`). Zero (the default) disables coalescing: every call
// runs its own passes.
func WithBatchWindow(d time.Duration) Option {
	return func(c *serviceConfig) { c.batchWindow = d }
}

// aggWaiter is one caller blocked on the aggregator: its queries, the
// routing slots its per-query results land in, and the
// channel its goroutine waits on. A waiter's queries may be spread
// over several passes (mixed-size requests split and overflow); the
// waiter completes when the last slot is delivered, or fails on the
// first pass error.
type aggWaiter struct {
	features [][]uint64
	enqueued time.Time
	results  []*Result

	mu        sync.Mutex
	remaining int
	err       error
	finished  bool
	abandoned bool
	done      chan struct{}
}

// deliver routes one pass's decoded results into the waiter's slots
// [lo, lo+len(results)). Delivery to an abandoned waiter (its caller's
// context expired while the pass was in flight) is dropped: the pass
// proceeded for its neighbours, this caller already returned.
func (w *aggWaiter) deliver(lo int, results []*Result) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.finished || w.abandoned {
		return
	}
	copy(w.results[lo:], results)
	w.remaining -= len(results)
	if w.remaining == 0 {
		w.finished = true
		close(w.done)
	}
}

// fail completes the waiter with an error: one failed pass fails the
// whole request, even when other slots were (or would be) delivered.
func (w *aggWaiter) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.finished || w.abandoned {
		return
	}
	w.err = err
	w.finished = true
	close(w.done)
}

// abandon marks the waiter cancelled, returning false when it already
// completed (the caller should then take the finished result instead).
// Abandoned slots in a forming batch are dropped at assembly; slots
// already assembled into an in-flight pass ride along harmlessly — the
// pass proceeds for the other waiters and the delivery is discarded.
func (w *aggWaiter) abandon() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.finished {
		return false
	}
	w.abandoned = true
	return true
}

func (w *aggWaiter) isAbandoned() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.abandoned
}

// aggEntry is a queued waiter plus how many of its queries earlier
// passes already took (mixed-size requests split across passes).
type aggEntry struct {
	w    *aggWaiter
	next int
}

// aggSlice is one waiter's contribution to one pass: queries [lo, hi)
// of the waiter. Slot-block offsets within the pass are assigned at
// launch, after abandoned slices are dropped.
type aggSlice struct {
	w      *aggWaiter
	lo, hi int
}

// aggregator is the per-model dynamic batcher: one goroutine owning a
// FIFO of waiters, firing a slot-packed pass whenever the pending
// query count reaches the model's batch capacity or the linger window of
// the oldest arrival expires. Passes execute on their own goroutines (the
// service's in-flight semaphore provides the backpressure), so a slow
// pass never blocks the next batch from forming.
type aggregator struct {
	svc      *Service
	name     string
	window   time.Duration
	capacity int
	arrivals chan *aggWaiter

	queue []*aggEntry // owned by run()
}

func newAggregator(svc *Service, name string, capacity int) *aggregator {
	a := &aggregator{
		svc:      svc,
		name:     name,
		window:   svc.cfg.batchWindow,
		capacity: capacity,
		arrivals: make(chan *aggWaiter),
	}
	go a.run()
	return a
}

// submit enqueues one caller's queries and blocks until every slot is
// answered, the caller's context expires (the waiter abandons its
// slots; any shared pass proceeds for the rest), or the service
// closes.
func (a *aggregator) submit(ctx context.Context, batch [][]uint64) ([]*Result, error) {
	w := &aggWaiter{
		features:  batch,
		enqueued:  time.Now(),
		results:   make([]*Result, len(batch)),
		remaining: len(batch),
		done:      make(chan struct{}),
	}
	select {
	case a.arrivals <- w:
	case <-ctx.Done():
		a.svc.failures.Add(1)
		return nil, ctx.Err()
	case <-a.svc.closing:
		return nil, fmt.Errorf("copse: service closed")
	}
	select {
	case <-w.done:
	case <-ctx.Done():
		if w.abandon() {
			a.svc.failures.Add(1)
			return nil, ctx.Err()
		}
		// Completed concurrently with the cancellation: the results are
		// already routed, hand them over.
		<-w.done
	}
	if w.err != nil {
		return nil, w.err
	}
	return w.results, nil
}

// run is the aggregator goroutine: enqueue arrivals, fire when full,
// linger otherwise until the window expires.
func (a *aggregator) run() {
	var timer *time.Timer
	var timerC <-chan time.Time
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
		}
		timerC = nil
	}
	for {
		select {
		case w := <-a.arrivals:
			a.queue = append(a.queue, &aggEntry{w: w})
			for a.pending() >= a.capacity {
				a.fire()
			}
			if a.pending() > 0 {
				if timerC == nil {
					timer = time.NewTimer(a.window)
					timerC = timer.C
				}
			} else {
				stopTimer()
			}
		case <-timerC:
			timerC = nil
			// Deadline: flush everything queued. pending < capacity
			// normally means one pass, but abandoned-entry bookkeeping is
			// settled at assembly, so loop to be exact.
			for a.pending() > 0 {
				a.fire()
			}
		case <-a.svc.closing:
			stopTimer()
			for _, e := range a.queue {
				e.w.fail(fmt.Errorf("copse: service closed"))
			}
			a.queue = nil
			return
		}
	}
}

// pending counts queued queries not yet assembled into a pass,
// dropping waiters whose callers abandoned them while lingering.
func (a *aggregator) pending() int {
	n := 0
	live := a.queue[:0]
	for _, e := range a.queue {
		if e.w.isAbandoned() {
			continue
		}
		live = append(live, e)
		n += len(e.w.features) - e.next
	}
	a.queue = live
	return n
}

// fire assembles up to capacity queries FIFO from the queue — splitting
// a waiter larger than the remaining capacity across passes, the
// overflow staying queued for the next one — and launches the pass.
func (a *aggregator) fire() {
	var slices []aggSlice
	taken := 0
	now := time.Now()
	for len(a.queue) > 0 && taken < a.capacity {
		e := a.queue[0]
		if e.w.isAbandoned() {
			a.queue = a.queue[1:]
			continue
		}
		n := min(a.capacity-taken, len(e.w.features)-e.next)
		slices = append(slices, aggSlice{w: e.w, lo: e.next, hi: e.next + n})
		a.svc.aggWaitNS.Add(int64(n) * now.Sub(e.w.enqueued).Nanoseconds())
		e.next += n
		taken += n
		if e.next == len(e.w.features) {
			a.queue = a.queue[1:]
		}
	}
	if taken == 0 {
		return
	}
	// The shuffle seed is reserved at fire time so seeded services
	// reproduce pass-for-pass regardless of pass goroutine scheduling.
	go a.runPass(slices, taken, a.svc.shuffleSeedBlock(1))
}

// runPass executes one coalesced pass: slot-pack every live slice's
// queries, classify (through the service's in-flight limiter — the
// batcher inherits the WithMaxInFlight backpressure), decrypt, and
// route each waiter's window of results back to it.
func (a *aggregator) runPass(slices []aggSlice, total int, seed uint64) {
	live := slices[:0]
	for _, sl := range slices {
		if !sl.w.isAbandoned() {
			live = append(live, sl)
		}
	}
	if len(live) == 0 {
		return // everyone left during assembly: skip the pass entirely
	}
	feats := make([][]uint64, 0, total)
	for _, sl := range live {
		feats = append(feats, sl.w.features[sl.lo:sl.hi]...)
	}
	// The pass runs under the service's lifetime, not any one waiter's
	// context: a cancelled waiter abandons its slots, the pass proceeds
	// for the rest. A panic in it fails this pass's waiters with the
	// pass's *InternalError; every other pass and waiter proceeds.
	results, err := a.svc.pass(a.svc.runCtx, a.name, feats, seed)
	if err != nil {
		for _, sl := range live {
			sl.w.fail(err)
		}
		return
	}
	a.svc.aggPasses.Add(1)
	a.svc.aggQueries.Add(int64(len(feats)))
	a.svc.aggFillNum.Add(int64(len(feats)))
	a.svc.aggFillDen.Add(int64(a.capacity))
	off := 0
	for _, sl := range live {
		n := sl.hi - sl.lo
		sl.w.deliver(sl.lo, results[off:off+n])
		off += n
	}
}

// aggregatorFor returns the model's dynamic batcher, creating it (and
// its goroutine) on first use; nil when batching is disabled or the
// service is closed.
func (s *Service) aggregatorFor(name string) (*aggregator, error) {
	if s.cfg.batchWindow <= 0 {
		return nil, nil
	}
	s.mu.RLock()
	a := s.aggregators[name]
	s.mu.RUnlock()
	if a != nil {
		return a, nil
	}
	capacity, err := s.BatchCapacity(name)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closing:
		return nil, fmt.Errorf("copse: service closed")
	default:
	}
	if a = s.aggregators[name]; a == nil {
		a = newAggregator(s, name, capacity)
		s.aggregators[name] = a
	}
	return a, nil
}
