package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"sync"
	"time"

	"copse"
)

// AggBench is the machine-readable dynamic-batching record emitted by
// copse-bench -aggjson (BENCH_agg.json): closed-loop throughput of N
// uncoordinated single-query clients against one copse.Service, with
// the cross-request batcher on vs off. Every on-mode answer is verified
// bit-identical to the same client's off-mode answer and to the
// plaintext tree walk, so the speedup column is also a correctness
// witness for cross-user coalescing.
type AggBench struct {
	Clients          int       `json:"clients"`
	QueriesPerClient int       `json:"queries_per_client"`
	WindowMS         float64   `json:"window_ms"`
	Seed             uint64    `json:"seed"`
	Cases            []AggCase `json:"cases"`
}

// AggCase is one model × backend record.
type AggCase struct {
	Name          string  `json:"name"`
	Backend       string  `json:"backend"`
	Slots         int     `json:"slots"`
	BatchCapacity int     `json:"batch_capacity"`
	Off           AggMode `json:"batcher_off"`
	On            AggMode `json:"batcher_on"`
	// Speedup is On.QueriesPerSec / Off.QueriesPerSec — the realized
	// cross-user batching win at this client count.
	Speedup float64 `json:"speedup"`
}

// AggMode is the closed-loop measurement of one batcher setting.
type AggMode struct {
	QueriesPerSec float64 `json:"queries_per_sec"`
	// Passes is how many homomorphic passes answered the run's queries
	// (requests observed by the service; coalesced passes count once).
	Passes int64 `json:"passes"`
	// MeanLatencyMS is the mean client-observed per-query wall time,
	// including linger and queueing.
	MeanLatencyMS float64 `json:"mean_latency_ms"`
	// BatchFill is the batcher's mean pass fill ratio (0 when off).
	BatchFill float64 `json:"batch_fill"`
	// MeanBatchWaitMS is the mean per-query linger in the batcher
	// (0 when off).
	MeanBatchWaitMS float64 `json:"mean_batch_wait_ms"`
}

// WriteJSON writes the report.
func (a *AggBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// aggClients is the fixed closed-loop client count: the acceptance
// scenario of 16 concurrent single-query users.
const aggClients = 16

// aggWindow is the linger deadline of the on-mode batcher. It only
// bounds how long a lone query waits for co-riders; under closed-loop
// load passes fire at capacity, so the window never sits on the
// critical path of the throughput measurement.
const aggWindow = 25 * time.Millisecond

// AggReport benchmarks the dynamic cross-user batcher: for each model
// it runs aggClients concurrent single-query clients in closed loop —
// each client fires its next query as soon as its previous answer lands
// — first with the batcher off, then with WithBatchWindow on, and
// reports the throughput ratio. Both modes run under WithMaxInFlight(1)
// so they spend the same core budget per pass and the ratio isolates
// the batching win (queries answered per pass) from mere pass-level
// parallelism. The clear backend always runs; -backend bgv adds the
// real-ciphertext rows.
func AggReport(cfg Config) (*AggBench, error) {
	cfg = cfg.withDefaults()
	cases, err := AllCases(cfg)
	if err != nil {
		return nil, err
	}
	report := &AggBench{
		Clients:          aggClients,
		QueriesPerClient: max(1, cfg.Queries/aggClients),
		WindowMS:         float64(aggWindow.Microseconds()) / 1000,
		Seed:             cfg.Seed,
	}
	backends := []string{"clear"}
	if cfg.Backend == "bgv" {
		backends = append(backends, "bgv")
	}
	for _, cs := range cases {
		for _, backend := range backends {
			ac, err := aggCase(cs, backend, cfg, report.QueriesPerClient)
			if err != nil {
				return nil, err
			}
			report.Cases = append(report.Cases, ac)
		}
	}
	return report, nil
}

// aggCase measures one model on one backend, batcher off then on.
func aggCase(cs Case, backend string, cfg Config, perClient int) (AggCase, error) {
	compiled, err := copse.Compile(cs.Forest, copse.CompileOptions{Slots: cs.Slots})
	if err != nil {
		return AggCase{}, fmt.Errorf("experiments: compiling %s: %w", cs.Name, err)
	}
	ac := AggCase{
		Name:          cs.Name,
		Backend:       backend,
		Slots:         cs.Slots,
		BatchCapacity: compiled.Meta.BatchCapacity(),
	}
	// Same per-client query streams in both modes: the off-mode answers
	// double as the bit-equivalence reference for the on-mode.
	queries := make([][][]uint64, aggClients)
	for c := range queries {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(c)<<8|0xa66))
		queries[c] = make([][]uint64, perClient)
		for q := range queries[c] {
			queries[c][q] = randomFeatures(rng, cs.Forest.NumFeatures, cs.Forest.Precision)
		}
	}
	off, offResults, err := aggMode(cs, compiled, backend, cfg, queries, 0)
	if err != nil {
		return AggCase{}, err
	}
	on, onResults, err := aggMode(cs, compiled, backend, cfg, queries, aggWindow)
	if err != nil {
		return AggCase{}, err
	}
	for c := range queries {
		for q, feats := range queries[c] {
			want := cs.Forest.Classify(feats)
			for ti, lbl := range offResults[c][q].PerTree {
				if lbl != want[ti] {
					return AggCase{}, fmt.Errorf("experiments: %s/%s client %d query %d tree %d: off-mode L%d, want L%d",
						cs.Name, backend, c, q, ti, lbl, want[ti])
				}
			}
			if !reflect.DeepEqual(onResults[c][q], offResults[c][q]) {
				return AggCase{}, fmt.Errorf("experiments: %s/%s client %d query %d: coalesced result differs from single-query result",
					cs.Name, backend, c, q)
			}
		}
	}
	ac.Off, ac.On = off, on
	if off.QueriesPerSec > 0 {
		ac.Speedup = on.QueriesPerSec / off.QueriesPerSec
	}
	return ac, nil
}

// aggMode stages a fresh Service (window > 0 turns the batcher on) and
// runs the closed-loop clients, returning the measurement and every
// client's decoded results in stream order.
func aggMode(cs Case, compiled *copse.Compiled, backend string, cfg Config, queries [][][]uint64, window time.Duration) (AggMode, [][]*copse.Result, error) {
	kind, err := copse.ParseBackend(backend)
	if err != nil {
		return AggMode{}, nil, err
	}
	opts := []copse.Option{
		copse.WithBackend(kind),
		copse.WithScenario(copse.ScenarioOffload),
		copse.WithWorkers(defaultWorkers(cfg)),
		copse.WithMaxInFlight(1),
		copse.WithSeed(cfg.Seed + 100),
		copse.WithBatchPolicy(copse.BatchPolicy{Window: window}),
	}
	if kind == copse.BackendBGV {
		preset, err := securityFor(cs.Slots)
		if err != nil {
			return AggMode{}, nil, err
		}
		opts = append(opts, copse.WithSecurity(preset))
	}
	svc := copse.NewService(opts...)
	defer svc.Close()
	if err := svc.Register(cs.Name, compiled); err != nil {
		return AggMode{}, nil, fmt.Errorf("experiments: staging %s: %w", cs.Name, err)
	}

	results := make([][]*copse.Result, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range queries {
		results[c] = make([]*copse.Result, len(queries[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q, feats := range queries[c] {
				rs, err := svc.ClassifyBatch(context.Background(), cs.Name, [][]uint64{feats})
				if err != nil {
					errs[c] = fmt.Errorf("experiments: %s/%s client %d query %d: %w", cs.Name, backend, c, q, err)
					return
				}
				results[c][q] = rs[0]
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return AggMode{}, nil, err
		}
	}
	st := svc.Stats()
	total := len(queries) * len(queries[0])
	return AggMode{
		QueriesPerSec:   float64(total) / elapsed.Seconds(),
		Passes:          st.Requests,
		MeanLatencyMS:   float64(elapsed.Microseconds()) / 1000 * float64(len(queries)) / float64(total),
		BatchFill:       st.BatchFill,
		MeanBatchWaitMS: float64(st.MeanBatchWait().Microseconds()) / 1000,
	}, results, nil
}
