package copse_test

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"copse"
	"copse/internal/chaos"
	"copse/internal/he/heclear"
)

// chaosService builds a clear-backend service whose he.Backend is
// wrapped in a seeded fault-injection schedule. The schedule starts
// disarmed so registration (which encodes model plaintexts through the
// backend) stays clean; tests arm it when ready.
func chaosService(t *testing.T, seed uint64, cfg chaos.Config, opts ...copse.Option) (*copse.Forest, *copse.Service, *chaos.Schedule) {
	t.Helper()
	f, c := trainedModel(t, 61, 256)
	cfg.Seed = seed
	sched := chaos.NewSchedule(cfg)
	backend := chaos.WrapBackend(heclear.New(256, 65537), sched)
	svc := copse.NewService(append([]copse.Option{copse.WithExternalBackend(backend)}, opts...)...)
	if err := svc.Register("m", c); err != nil {
		t.Fatal(err)
	}
	return f, svc, sched
}

// TestServicePanicIsolation: a panicking backend op must surface as a
// typed *copse.InternalError on the one request that hit it — never
// crash the process or poison the service for later requests. A panic in
// decryption, the step of a pass after encrypt and classify, is the same
// counted error with the dynamic batcher and without.
func TestServicePanicIsolation(t *testing.T) {
	for _, path := range []struct {
		name string
		opts []copse.Option
	}{{"decrypt/direct", nil}, {"decrypt/batcher", []copse.Option{copse.WithBatchWindow(time.Millisecond)}}} {
		t.Run(path.name, func(t *testing.T) {
			decryptPanics := chaos.Config{PerOp: map[chaos.Op]chaos.Rates{chaos.OpDecrypt: {Panic: 1}}}
			_, svc, sched := chaosService(t, 7, decryptPanics, path.opts...)
			defer svc.Close()
			sched.Arm(true)
			_, err := svc.ClassifyBatch(context.Background(), "m", [][]uint64{{1, 2, 3}})
			var ie *copse.InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("classify under a decryption panic returned %v (%T), want *copse.InternalError", err, err)
			}
			if st := svc.Stats(); st.PanicsRecovered != 1 {
				t.Errorf("%d panics recovered, want 1", st.PanicsRecovered)
			}
		})
	}

	f, svc, sched := chaosService(t, 7, chaos.Config{Default: chaos.Rates{Panic: 1}})
	defer svc.Close()

	sched.Arm(true)
	_, err := svc.ClassifyBatch(context.Background(), "m", [][]uint64{{1, 2, 3}})
	var ie *copse.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("classify under injected panic returned %v, want *copse.InternalError", err)
	}
	if st := svc.Stats(); st.PanicsRecovered == 0 {
		t.Error("recovered panic not counted in stats")
	}

	// The service must be fully usable once the faults stop.
	sched.Arm(false)
	feats := [][]uint64{{1, 2, 3}, {4, 5, 6}}
	results, err := svc.ClassifyBatch(context.Background(), "m", feats)
	if err != nil {
		t.Fatalf("classify after disarm: %v", err)
	}
	for i, q := range feats {
		want := f.Classify(q)
		for ti, lbl := range results[i].PerTree {
			if lbl != want[ti] {
				t.Errorf("post-panic query %d tree %d: L%d, want L%d", i, ti, lbl, want[ti])
			}
		}
	}
}

// TestServiceDeadlineFastFail: once the latency model is warm, a
// request whose remaining deadline cannot cover even one pass is
// rejected up front with a typed *copse.DeadlineError instead of
// burning a slot on doomed work.
func TestServiceDeadlineFastFail(t *testing.T) {
	_, svc, _ := chaosService(t, 8, chaos.Config{})
	defer svc.Close()

	// Warm the pass-latency histogram past the estimator's threshold.
	for i := 0; i < 5; i++ {
		if _, err := svc.ClassifyBatch(context.Background(), "m", [][]uint64{{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := svc.ClassifyBatch(ctx, "m", [][]uint64{{1, 2, 3}})
	var de *copse.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("classify with exhausted deadline returned %v, want *copse.DeadlineError", err)
	}
	if st := svc.Stats(); st.DeadlineRejects == 0 {
		t.Error("deadline fast-fail not counted in stats")
	}
}

// TestServiceLoadShed: with one execution slot and a two-deep queue, a
// burst must shed the overflow with typed *copse.OverloadError (carrying
// a Retry-After hint) while admitted requests still complete correctly.
func TestServiceLoadShed(t *testing.T) {
	f, svc, sched := chaosService(t, 9,
		chaos.Config{Default: chaos.Rates{Latency: 1, LatencyMin: time.Millisecond, LatencyMax: 2 * time.Millisecond}},
		copse.WithMaxInFlight(1), copse.WithShedQueue(2))
	defer svc.Close()

	sched.Arm(true)
	const burst = 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	var shed, succeeded int
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feats := [][]uint64{{1, 2, 3}}
			results, err := svc.ClassifyBatch(context.Background(), "m", feats)
			mu.Lock()
			defer mu.Unlock()
			var oe *copse.OverloadError
			switch {
			case err == nil:
				want := f.Classify(feats[0])
				for ti, lbl := range results[0].PerTree {
					if lbl != want[ti] {
						t.Errorf("admitted query tree %d: L%d, want L%d", ti, lbl, want[ti])
					}
				}
				succeeded++
			case errors.As(err, &oe):
				if oe.RetryAfter <= 0 {
					t.Errorf("OverloadError without Retry-After hint: %+v", oe)
				}
				shed++
			default:
				t.Errorf("burst classify returned unexpected error %v", err)
			}
		}()
	}
	wg.Wait()
	if shed == 0 {
		t.Errorf("burst of %d over capacity 1+2 shed nothing", burst)
	}
	if succeeded == 0 {
		t.Error("burst shed everything; admitted requests should finish")
	}
	if st := svc.Stats(); st.Shed != int64(shed) {
		t.Errorf("stats shed %d, observed %d", st.Shed, shed)
	}
}

// TestBatcherCancelUnderFault hammers the dynamic batcher with
// concurrent clients that randomly cancel mid-flight while the backend
// injects errors and panics: every waiter must get an answer or an
// error (no stranded goroutines, no deadlock), panics must surface
// typed, and the service must classify correctly once disarmed. In CI
// this runs under -race.
func TestBatcherCancelUnderFault(t *testing.T) {
	f, svc, sched := chaosService(t, 10,
		chaos.Config{Default: chaos.Rates{Error: 0.2, Panic: 0.05}},
		copse.WithBatchWindow(2*time.Millisecond), copse.WithWorkers(2))
	defer svc.Close()

	sched.Arm(true)
	const clients = 32
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(99, uint64(i)))
			for j := 0; j < 8; j++ {
				ctx, cancel := context.WithCancel(context.Background())
				if i%2 == 0 {
					// Half the clients race a cancel against the pass.
					delay := time.Duration(rng.Uint64N(3)) * time.Millisecond
					go func() {
						time.Sleep(delay)
						cancel()
					}()
				}
				feats := [][]uint64{{rng.Uint64N(16), rng.Uint64N(16), rng.Uint64N(16)}}
				results, err := svc.ClassifyBatch(ctx, "m", feats)
				if err == nil {
					want := f.Classify(feats[0])
					for ti, lbl := range results[0].PerTree {
						if lbl != want[ti] {
							t.Errorf("client %d tree %d: L%d, want L%d", i, ti, lbl, want[ti])
						}
					}
				}
				cancel()
			}
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("batcher deadlocked under fault injection")
	}

	// Recovery: disarmed, the same service answers correctly.
	sched.Arm(false)
	feats := [][]uint64{{3, 1, 4}}
	results, err := svc.ClassifyBatch(context.Background(), "m", feats)
	if err != nil {
		t.Fatalf("classify after disarm: %v", err)
	}
	want := f.Classify(feats[0])
	for ti, lbl := range results[0].PerTree {
		if lbl != want[ti] {
			t.Errorf("post-fault tree %d: L%d, want L%d", ti, lbl, want[ti])
		}
	}
	if st := svc.Stats(); st.InFlight != 0 {
		t.Errorf("in-flight %d after drain", st.InFlight)
	}
}
