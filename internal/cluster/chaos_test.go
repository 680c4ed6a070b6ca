package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copse"
	"copse/internal/chaos"
	"copse/internal/core"
	"copse/internal/he/hebgv"
)

// TestChaosSoak is the fault-injection acceptance run (DESIGN.md §15):
// a 2-worker BGV cluster with both shards replicated on both workers,
// a seeded chaos transport injecting latency spikes, connection
// resets, 503 bursts and garbled frames, and one worker killed and
// restarted mid-run. Every request must either succeed bit-correct
// against a single-node reference or fail typed; the killed worker's
// breaker must reopen traffic after recovery without a manual Refresh;
// and no goroutines may leak. The 2× pre-chaos latency assertion is
// gated by COPSE_CHAOS_SOAK=1 — wall-clock bounds don't belong in the
// default unit run.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak runs full BGV passes")
	}
	f := clusterForest(t, 55)
	c, err := core.Compile(f, core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Both workers hold BOTH shards: full replication, so the cluster
	// can serve every request throughout the kill window.
	var workers []*Worker
	var servers []*httptest.Server
	var killed atomic.Bool // worker 1's kill switch
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{Seed: 71, Service: []copse.Option{copse.WithMaxInFlight(4)}})
		for _, s := range shards {
			if err := w.AddShard("forest", manifest, s); err != nil {
				t.Fatalf("worker %d AddShard: %v", i, err)
			}
		}
		workers = append(workers, w)
		h := w.Handler()
		var wrapped http.Handler = h
		if i == 1 {
			wrapped = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				if killed.Load() {
					panic(http.ErrAbortHandler) // drop the connection like a dead process
				}
				h.ServeHTTP(rw, r)
			})
		}
		srv := httptest.NewServer(wrapped)
		servers = append(servers, srv)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
		for _, w := range workers {
			w.Close()
		}
	}()

	sched := chaos.NewSchedule(chaos.Config{
		Seed: 17,
		Default: chaos.Rates{
			Latency: 0.25, LatencyMin: 5 * time.Millisecond, LatencyMax: 20 * time.Millisecond,
			Reset: 0.08, ServerError: 0.03, Garble: 0.03,
		},
	})
	// Dedicated transport so the leak check can flush this test's idle
	// connection pool without touching other tests' clients.
	inner := http.DefaultTransport.(*http.Transport).Clone()
	gw := NewGateway(GatewayConfig{
		Workers:        []string{servers[0].URL, servers[1].URL},
		RequestTimeout: 10 * time.Minute,
		ProbeInterval:  time.Hour, // recovery must come from the breakers, not the prober
		Breaker:        BreakerConfig{Threshold: 3, Cooldown: 150 * time.Millisecond},
		Retries:        6,
		Client:         &http.Client{Transport: &chaos.RoundTripper{Inner: inner, Sched: sched}},
	})
	defer gw.Close()
	if err := gw.Refresh(context.Background()); err != nil {
		t.Fatalf("gateway refresh: %v", err)
	}

	// Fixed query pool with single-node reference answers.
	ref := copse.NewService(copse.WithScenario(copse.ScenarioServerModel), copse.WithSeed(7))
	defer ref.Close()
	if err := ref.Register("forest", c); err != nil {
		t.Fatal(err)
	}
	pool := [][]uint64{{3, 9, 14}, {0, 1, 2}, {15, 7, 11}, {8, 8, 8}, {1, 13, 5}, {12, 2, 9}}
	want, err := ref.ClassifyBatch(context.Background(), "forest", pool)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-chaos latency baseline and the goroutine baseline at cluster
	// steady state. The first request warms the cluster (keys fetched,
	// histograms primed); the baseline is the median of the ones after it,
	// since a pass is short enough now for one scheduling hiccup to double
	// a single sample.
	medianLatency := func(what string, n int) time.Duration {
		t.Helper()
		took := make([]time.Duration, n)
		for i := range took {
			start := time.Now()
			if _, _, err := gw.Classify(context.Background(), "forest", pool[:1]); err != nil {
				t.Fatalf("%s classify: %v", what, err)
			}
			took[i] = time.Since(start)
		}
		slices.Sort(took)
		return took[n/2]
	}
	medianLatency("warm", 1)
	baseline := medianLatency("pre-chaos", 5)
	baseGoroutines := runtime.NumGoroutine()

	// Soak: concurrent clients under armed chaos, with worker 1 killed
	// and restarted mid-run. Each client sends at least perClient requests
	// and keeps going until the worker is back, so the kill window always
	// has requests in flight, however fast a pass is.
	sched.Arm(true)
	const clients, perClient = 4, 2
	type outcome struct {
		query   int
		results []DecodedResult
		err     error
		elapsed time.Duration
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
		wg       sync.WaitGroup
	)
	restarted := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				if j >= perClient {
					select {
					case <-restarted:
						return
					default:
					}
				}
				qi := (i*perClient + j) % len(pool)
				start := time.Now()
				results, _, err := gw.Classify(context.Background(), "forest", pool[qi:qi+1])
				mu.Lock()
				outcomes = append(outcomes, outcome{query: qi, results: results, err: err, elapsed: time.Since(start)})
				mu.Unlock()
			}
		}(i)
	}
	// Kill worker 1 a few passes in and keep it dead until its breaker has
	// tripped (three seconds at most), then bring it back.
	time.Sleep(min(3*baseline, 500*time.Millisecond))
	killed.Store(true)
	for end := time.Now().Add(3 * time.Second); time.Now().Before(end) && gw.breakerFor(servers[1].URL).snapshot().Opens == 0; {
		time.Sleep(10 * time.Millisecond)
	}
	killed.Store(false)
	close(restarted)
	wg.Wait()
	sched.Arm(false)

	var failures int
	var slowest time.Duration
	for _, out := range outcomes {
		if out.err != nil {
			failures++
			t.Errorf("soak classify of query %d failed: %v", out.query, out.err)
			continue
		}
		if len(out.results) != 1 {
			t.Fatalf("query %d: %d results", out.query, len(out.results))
		}
		res, exp := out.results[0], want[out.query]
		if !reflect.DeepEqual(res.Votes, exp.Votes) || !reflect.DeepEqual(res.PerTree, exp.PerTree) {
			t.Errorf("query %d answered WRONG under chaos: votes %v / perTree %v, want %v / %v",
				out.query, res.Votes, res.PerTree, exp.Votes, exp.PerTree)
		}
		slowest = max(slowest, out.elapsed)
	}
	if sched.Injected() == 0 {
		t.Error("soak ran without a single injected fault")
	}
	if gw.retries.Load() == 0 {
		t.Error("soak survived the kill window without any retry")
	}
	if b := gw.breakerFor(servers[1].URL); b.snapshot().Opens == 0 {
		t.Error("killed worker never tripped its breaker")
	}
	t.Logf("soak: slowest request %v against pre-chaos baseline %v", slowest, baseline)

	// Recovery: with chaos disarmed and worker 1 back, the breaker must
	// reopen traffic on its own — no Refresh. Each request tries the
	// holder due a half-open trial first, so live traffic probes the
	// breaker until a success closes it.
	recovered := false
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, err := gw.Classify(context.Background(), "forest", pool[:1]); err != nil {
			t.Fatalf("post-chaos classify: %v", err)
		}
		if snap := gw.breakerFor(servers[1].URL).snapshot(); snap.State == "closed" {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Error("restarted worker's breaker never closed without a manual Refresh")
	}
	// In-budget requests against the recovered cluster must be back
	// within 2x the pre-chaos latency, median against median — the request
	// that closed the breaker raced a half-open probe and is not one of
	// them (wall-clock assertions are gated: they don't belong in the
	// default unit run).
	if os.Getenv("COPSE_CHAOS_SOAK") == "1" {
		if healthy := medianLatency("post-recovery", 5); healthy > 2*baseline {
			t.Errorf("post-recovery median %v exceeds 2x the pre-chaos median %v", healthy, baseline)
		}
	}

	// No goroutine leaks: everything in flight (shard fan-outs, batcher
	// passes) must settle. Pooled idle connections
	// are not leaks — flush them first.
	inner.CloseIdleConnections()
	settleDeadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(settleDeadline) {
		if runtime.NumGoroutine() <= baseGoroutines+8 {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Errorf("goroutines leaked: %d at start, %d after settle\n%s",
		baseGoroutines, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestWorkerOverload429: a worker with one execution slot and a
// one-deep queue must shed a burst with HTTP 429 + Retry-After — the
// typed overload surface the gateway passes through to clients —
// while the admitted requests still answer.
func TestWorkerOverload429(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV worker round trip is slow")
	}
	f := clusterForest(t, 56)
	c, err := core.Compile(f, core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{Seed: 72, Service: []copse.Option{copse.WithMaxInFlight(1), copse.WithShedQueue(1)}})
	defer w.Close()
	if err := w.AddShard("forest", manifest, shards[0]); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	// Build a valid query frame with a client backend sharing the
	// worker's key material.
	client, err := hebgv.NewFromMaterial(hebgv.Config{Seed: 9}, w.Material())
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.PrepareQueryBatch(client, &manifest.Meta, [][]uint64{{3, 9, 14}}, true)
	if err != nil {
		t.Fatal(err)
	}
	wcs := make([]WireCiphertext, len(q.Bits))
	for i, op := range q.Bits {
		raw, depth, err := client.ExportCiphertext(op.Ct)
		if err != nil {
			t.Fatal(err)
		}
		wcs[i] = WireCiphertext{Ct: raw, Depth: depth}
	}
	var frame bytes.Buffer
	if err := EncodeCiphertexts(&frame, wcs); err != nil {
		t.Fatal(err)
	}

	target := fmt.Sprintf("%s/v1/cluster/classify?model=forest&shard=0&batch=1", srv.URL)
	const burst = 8
	var wg sync.WaitGroup
	var okCount, shedCount atomic.Int64
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(target, "application/octet-stream", bytes.NewReader(frame.Bytes()))
			if err != nil {
				t.Errorf("burst post: %v", err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				okCount.Add(1)
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After header")
				}
				shedCount.Add(1)
			default:
				t.Errorf("burst got unexpected status %s", resp.Status)
			}
		}()
	}
	wg.Wait()
	if shedCount.Load() == 0 {
		t.Errorf("burst of %d over capacity 1+1 produced no 429", burst)
	}
	if okCount.Load() == 0 {
		t.Error("burst shed everything; admitted passes should answer")
	}
	if st := w.Service().Stats(); st.Shed != shedCount.Load() {
		t.Errorf("worker stats shed %d, observed %d", st.Shed, shedCount.Load())
	}
}
