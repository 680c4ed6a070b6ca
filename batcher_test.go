package copse_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"testing"
	"time"

	"copse"
)

// batchedService stages one trainedModel on a clear-backend service
// with the dynamic batcher on.
func batchedService(t *testing.T, seed uint64, window time.Duration, extra ...copse.Option) (*copse.Forest, *copse.Service) {
	t.Helper()
	f, c := trainedModel(t, seed, 256)
	opts := append([]copse.Option{
		copse.WithBackend(copse.BackendClear),
		copse.WithBatchWindow(window),
	}, extra...)
	svc := copse.NewService(opts...)
	if err := svc.Register("m", c); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return f, svc
}

// TestAggregatorCoalesces: N uncoordinated single-query goroutines
// share one slot-packed pass (the fleet fills it: the pass fires at
// capacity, long before the window), every
// caller gets its own correct result, and the batcher counters land in
// Stats.
func TestAggregatorCoalesces(t *testing.T) {
	const clients = 4 // trainedModel capacity at 256 slots: one full pass
	f, svc := batchedService(t, 51, time.Minute)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			feats := []uint64{uint64(g) % 16, uint64(g+5) % 16, uint64(g+11) % 16}
			results, err := svc.ClassifyBatch(context.Background(), "m", [][]uint64{feats})
			if err != nil {
				errs[g] = err
				return
			}
			want := f.Classify(feats)
			for ti, lbl := range results[0].PerTree {
				if lbl != want[ti] {
					errs[g] = fmt.Errorf("client %d tree %d: L%d, want L%d", g, ti, lbl, want[ti])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	st := svc.Stats()
	if st.BatcherPasses != 1 {
		t.Errorf("%d passes for %d coalesced clients, want 1", st.BatcherPasses, clients)
	}
	if st.CoalescedQueries != clients {
		t.Errorf("%d coalesced queries, want %d", st.CoalescedQueries, clients)
	}
	if st.Requests != 1 {
		t.Errorf("%d backend requests, want 1", st.Requests)
	}
	if st.BatchFill != 1 {
		t.Errorf("fill %v, want 1 (full pass)", st.BatchFill)
	}
	if st.MeanBatchWait() <= 0 {
		t.Error("no batch linger recorded")
	}
}

// TestAggregatorLingerFlush: a lone query is answered when the linger
// window expires — the batcher never strands a request waiting for
// co-riders that don't come.
func TestAggregatorLingerFlush(t *testing.T) {
	f, svc := batchedService(t, 52, 5*time.Millisecond)
	feats := []uint64{3, 1, 4}
	start := time.Now()
	results, err := svc.ClassifyBatch(context.Background(), "m", [][]uint64{feats})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("lone query answered in %v, before the linger window", elapsed)
	}
	if got, want := results[0].PerTree[0], f.Classify(feats)[0]; got != want {
		t.Errorf("lone query: L%d, want L%d", got, want)
	}
	if st := svc.Stats(); st.BatcherPasses != 1 || st.CoalescedQueries != 1 {
		t.Errorf("stats: %d passes / %d queries, want 1/1", st.BatcherPasses, st.CoalescedQueries)
	}
}

// TestAggregatorOverflowChain: a request larger than the model's batch
// capacity flows through the batcher as multiple passes (split +
// overflow), every query answered in order.
func TestAggregatorOverflowChain(t *testing.T) {
	f, svc := batchedService(t, 53, 2*time.Millisecond)
	capacity, err := svc.BatchCapacity("m")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(53, 1))
	batch := make([][]uint64, 2*capacity+3)
	for i := range batch {
		batch[i] = []uint64{rng.Uint64N(16), rng.Uint64N(16), rng.Uint64N(16)}
	}
	results, err := svc.ClassifyBatch(context.Background(), "m", batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(batch) {
		t.Fatalf("%d results for %d queries", len(results), len(batch))
	}
	for i, feats := range batch {
		want := f.Classify(feats)
		for ti, lbl := range results[i].PerTree {
			if lbl != want[ti] {
				t.Errorf("query %d tree %d: L%d, want L%d", i, ti, lbl, want[ti])
			}
		}
	}
	if st := svc.Stats(); st.BatcherPasses < 3 {
		t.Errorf("%d passes for %d queries at capacity %d, want ≥ 3", st.BatcherPasses, len(batch), capacity)
	}
}

// TestAggregatorCancelMidLinger: a caller whose context expires while
// its query lingers abandons its slots without corrupting the
// neighbours' results; a caller cancelled after completion still gets
// its answer.
func TestAggregatorCancelMidLinger(t *testing.T) {
	f, svc := batchedService(t, 54, 30*time.Millisecond)

	// Cancelled while lingering alone: the waiter abandons, the flush
	// finds nothing to run.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := svc.ClassifyBatch(ctx, "m", [][]uint64{{1, 2, 3}}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled linger returned %v, want deadline exceeded", err)
	}
	if st := svc.Stats(); st.Failures == 0 {
		t.Error("cancellation not counted as failure")
	}

	// A neighbour cancelled mid-linger must not disturb survivors
	// sharing the window.
	var wg sync.WaitGroup
	survivors := make([]error, 5)
	wg.Add(1)
	doomed, cancelDoomed := context.WithCancel(context.Background())
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		cancelDoomed()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := svc.ClassifyBatch(doomed, "m", [][]uint64{{9, 9, 9}})
		if !errors.Is(err, context.Canceled) {
			survivors[4] = fmt.Errorf("doomed caller returned %v, want canceled", err)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			feats := []uint64{uint64(g), uint64(g + 1), uint64(g + 2)}
			results, err := svc.ClassifyBatch(context.Background(), "m", [][]uint64{feats})
			if err != nil {
				survivors[g] = err
				return
			}
			if got, want := results[0].PerTree[0], f.Classify(feats)[0]; got != want {
				survivors[g] = fmt.Errorf("survivor %d: L%d, want L%d", g, got, want)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range survivors {
		if err != nil {
			t.Error(err)
		}
	}
	// Wait out any pass still delivering so Cleanup's Close doesn't race
	// the assertions above in logs.
	if st := svc.Stats(); st.BatcherPasses == 0 {
		t.Error("no pass fired for the survivors")
	}
}

// TestAggregatorShuffledRouting: coalesced shuffled passes route each
// caller its own codebook window — votes must match the plaintext walk
// through the caller's codebook, per-tree labels stay hidden.
func TestAggregatorShuffledRouting(t *testing.T) {
	f, _ := trainedModel(t, 55, 256)
	c, err := copse.Compile(f, copse.CompileOptions{Slots: 256, PlanShuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	svc := copse.NewService(copse.WithBackend(copse.BackendClear), copse.WithBatchWindow(time.Minute),
		copse.WithShuffle(true), copse.WithSeed(7))
	if err := svc.Register("m", c); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	// One client per query the model packs: the fleet fills one pass,
	// which fires at once instead of when the window expires.
	clients, err := svc.BatchCapacity("m")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			feats := []uint64{uint64(g+2) % 16, uint64(g*3) % 16, uint64(g+9) % 16}
			results, err := svc.ClassifyBatch(context.Background(), "m", [][]uint64{feats})
			if err != nil {
				errs[g] = err
				return
			}
			if results[0].PerTree != nil {
				errs[g] = fmt.Errorf("client %d: shuffled result exposes per-tree labels", g)
				return
			}
			if cb := results[0].Codebook; cb == nil || len(cb.Slots) == 0 {
				errs[g] = fmt.Errorf("client %d: missing codebook", g)
				return
			}
			wantVotes := make([]int, len(f.Labels))
			for _, lbl := range f.Classify(feats) {
				wantVotes[lbl]++
			}
			for lbl, v := range results[0].Votes {
				if v != wantVotes[lbl] {
					errs[g] = fmt.Errorf("client %d: votes %v, want %v", g, results[0].Votes, wantVotes)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if st := svc.Stats(); st.BatcherPasses != 1 {
		t.Errorf("%d passes, want 1 (codebook routing must survive coalescing)", st.BatcherPasses)
	}
}

// aggStress hammers a batched service with N clients × mixed request
// sizes (single queries, half-capacity, capacity+1 overflow) and checks
// every caller's every result against the plaintext walk. Run under
// -race this is the aggregator's concurrency contract.
func aggStress(t *testing.T, f *copse.Forest, svc *copse.Service, clients, rounds int) {
	t.Helper()
	capacity, err := svc.BatchCapacity("m")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 0xa66))
			for i := 0; i < rounds; i++ {
				n := 1
				switch i % 3 {
				case 1:
					n = max(capacity/2, 1)
				case 2:
					n = capacity + 1 // overflow: splits across passes
				}
				batch := make([][]uint64, n)
				for k := range batch {
					batch[k] = make([]uint64, f.NumFeatures)
					for j := range batch[k] {
						batch[k][j] = rng.Uint64N(1 << uint(f.Precision))
					}
				}
				results, err := svc.ClassifyBatch(context.Background(), "m", batch)
				if err != nil {
					errc <- fmt.Errorf("client %d round %d: %w", g, i, err)
					return
				}
				if len(results) != n {
					errc <- fmt.Errorf("client %d round %d: %d results for %d queries", g, i, len(results), n)
					return
				}
				for k, feats := range batch {
					want := f.Classify(feats)
					for ti, lbl := range results[k].PerTree {
						if lbl != want[ti] {
							errc <- fmt.Errorf("client %d round %d query %d tree %d: L%d, want L%d", g, i, k, ti, lbl, want[ti])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestAggregatorStressClear: the mixed-size -race stress on the exact
// backend, with an in-flight cap so batcher backpressure and the queue
// path are exercised together.
func TestAggregatorStressClear(t *testing.T) {
	f, svc := batchedService(t, 56, time.Millisecond,
		copse.WithWorkers(2), copse.WithMaxInFlight(2))
	aggStress(t, f, svc, 8, 6)
	st := svc.Stats()
	if st.BatcherPasses == 0 || st.CoalescedQueries == 0 {
		t.Errorf("stress ran without the batcher: %d passes, %d queries", st.BatcherPasses, st.CoalescedQueries)
	}
	if st.CoalescedQueries < st.BatcherPasses {
		t.Errorf("stats: %d coalesced queries < %d passes", st.CoalescedQueries, st.BatcherPasses)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight %d after drain", st.InFlight)
	}
}

// TestAggregatorStressBGV is the same stress on real BGV ciphertexts:
// coalesced passes over one shared evaluator and key set must be
// race-free and bit-correct.
func TestAggregatorStressBGV(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent BGV stress is slow")
	}
	forest := copse.ExampleForest()
	c, err := copse.Compile(forest, copse.CompileOptions{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	svc := copse.NewService(
		copse.WithBackend(copse.BackendBGV),
		copse.WithWorkers(2),
		copse.WithSeed(13),
		copse.WithBatchWindow(2*time.Millisecond),
	)
	if err := svc.Register("m", c); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	aggStress(t, forest, svc, 4, 2)
	if st := svc.Stats(); st.BatcherPasses == 0 {
		t.Error("BGV stress ran without the batcher")
	}
}

// TestAggregatorServiceClose: Close fails queued waiters instead of
// stranding them, and later submissions are rejected.
func TestAggregatorServiceClose(t *testing.T) {
	_, svc := batchedService(t, 57, time.Hour)
	errc := make(chan error, 1)
	go func() {
		_, err := svc.ClassifyBatch(context.Background(), "m", [][]uint64{{1, 2, 3}})
		errc <- err
	}()
	// Let the waiter reach the aggregator before closing.
	time.Sleep(10 * time.Millisecond)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Error("queued waiter returned nil after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter stranded by Close")
	}
	if _, err := svc.ClassifyBatch(context.Background(), "m", [][]uint64{{1, 2, 3}}); err == nil {
		t.Error("closed service accepted a classify")
	}
}

// TestDynamicBatchPerfSmoke is the CI throughput gate: 16 concurrent
// single-query clients on the clear backend must see ≥ 4× queries/sec
// with the batcher on vs off under an equal core budget
// (WithMaxInFlight(1) both sides — the win is queries per pass, not
// parallelism). Gated by COPSE_PERF_SMOKE=1: wall-clock assertions
// don't belong in the default unit run.
func TestDynamicBatchPerfSmoke(t *testing.T) {
	if os.Getenv("COPSE_PERF_SMOKE") != "1" {
		t.Skip("set COPSE_PERF_SMOKE=1 to run the dynamic-batching throughput gate")
	}
	const clients = 16
	const perClient = 4
	f, c := trainedModel(t, 58, 512) // capacity 8: 16 clients fill passes 2x over
	run := func(window time.Duration) float64 {
		opts := []copse.Option{
			copse.WithBackend(copse.BackendClear),
			copse.WithMaxInFlight(1),
			copse.WithBatchWindow(window),
		}
		svc := copse.NewService(opts...)
		if err := svc.Register("m", c); err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		var wg sync.WaitGroup
		errc := make(chan error, clients)
		start := time.Now()
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(g), 0x5e))
				for i := 0; i < perClient; i++ {
					feats := make([]uint64, f.NumFeatures)
					for j := range feats {
						feats[j] = rng.Uint64N(1 << uint(f.Precision))
					}
					results, err := svc.ClassifyBatch(context.Background(), "m", [][]uint64{feats})
					if err != nil {
						errc <- err
						return
					}
					if got, want := results[0].PerTree[0], f.Classify(feats)[0]; got != want {
						errc <- fmt.Errorf("client %d: L%d, want L%d", g, got, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		return float64(clients*perClient) / elapsed.Seconds()
	}
	off := run(0)
	on := run(10 * time.Millisecond)
	t.Logf("batcher off: %.0f q/s, on: %.0f q/s (%.1fx)", off, on, on/off)
	if on < 4*off {
		t.Errorf("batcher on: %.0f q/s, off: %.0f q/s — want ≥ 4x", on, off)
	}
}
