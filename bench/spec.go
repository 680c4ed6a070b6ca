package main

import (
	"time"

	"copse"
)

// runSeconds is the measured window of one workload run; BENCHMARK.json
// records the same number as run_seconds.
const runSeconds = 30

// Fixed harness settings (bench/README.md explains each).
const (
	slots = 1024 // SecurityTest packing width
	// warmupTime of the workload's own traffic runs before the window: the
	// guest kernel keeps a new process's threads on one CPU for its first
	// seconds, and pools, caches and the batcher's history fill meanwhile.
	warmupTime     = 4 * time.Second
	setupRepeats   = 3 // set-ups per run of an in-process workload; setup_s is their median
	tracedRequests = 8 // fixed count, so op counts repeat exactly for a seed
	modelName      = "m"
)

// metric is one row of BENCHMARK.json's end_to_end or per_layer list.
// Bound is set on end-to-end metrics only.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers a user of the system sees; every workload
// reports all five. A bound is per metric, not per workload, so the
// noisiest workload sets it, and the driver's host is noisier than the
// one bench/README.md's spreads were taken on: every bound is the most
// the contract allows.
var endToEnd = []metric{
	{"latency_p50_ms", "ms", lower, 0.25},
	{"throughput_qps", "queries/s", higher, 0.25},
	{"cpu_ms_per_query", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// perLayer are the traced-run metrics, prefixed by the module that does
// the work. bench/README.md says which end-to-end metric each should
// move, on which workload.
var perLayer = []metric{
	// ring: direct calls on a ring.Context (logN 11; hi = 14 limbs, lo = 8).
	{Name: "ring.ntt_us.hi", Unit: "us", Better: lower},
	{Name: "ring.ntt_us.lo", Unit: "us", Better: lower},
	{Name: "ring.intt_us.hi", Unit: "us", Better: lower},
	{Name: "ring.mulcoeffs_us.hi", Unit: "us", Better: lower},
	{Name: "ring.decompose_us.hi", Unit: "us", Better: lower},
	{Name: "ring.decompose_us.lo", Unit: "us", Better: lower},
	{Name: "ring.modswitch_us.hi", Unit: "us", Better: lower},
	{Name: "ring.ntt_us.n15", Unit: "us", Better: lower},
	// bgv: direct Evaluator/Encryptor calls on a 14-prime chain.
	{Name: "bgv.mul_relin_us.hi", Unit: "us", Better: lower},
	{Name: "bgv.mul_relin_us.lo", Unit: "us", Better: lower},
	{Name: "bgv.rotate_us.hi", Unit: "us", Better: lower},
	{Name: "bgv.rotate_us.lo", Unit: "us", Better: lower},
	{Name: "bgv.rotate_hoisted_us_per_step.lo", Unit: "us", Better: lower},
	{Name: "bgv.mulplain_us.lo", Unit: "us", Better: lower},
	{Name: "bgv.modswitch_us.hi", Unit: "us", Better: lower},
	{Name: "bgv.encrypt_us.hi", Unit: "us", Better: lower},
	{Name: "bgv.decrypt_us.l2", Unit: "us", Better: lower},
	// hebgv: key generation and resident key bytes.
	{Name: "hebgv.keygen_ms", Unit: "ms", Better: lower},
	{Name: "hebgv.eval_key_mb", Unit: "MB", Better: lower},
	// he: per pass, from the timing decorator around the backend.
	{Name: "he.mul_count", Unit: "count", Better: lower},
	{Name: "he.mul_busy_ms", Unit: "ms", Better: lower},
	{Name: "he.mulplain_count", Unit: "count", Better: lower},
	{Name: "he.mulplain_busy_ms", Unit: "ms", Better: lower},
	{Name: "he.rotate_count", Unit: "count", Better: lower},
	{Name: "he.rotate_busy_ms", Unit: "ms", Better: lower},
	{Name: "he.rotate_hoisted_share", Unit: "share", Better: higher},
	{Name: "he.relin_count", Unit: "count", Better: lower},
	{Name: "he.relin_busy_ms", Unit: "ms", Better: lower},
	{Name: "he.add_count", Unit: "count", Better: lower},
	{Name: "he.add_busy_ms", Unit: "ms", Better: lower},
	{Name: "he.drop_count", Unit: "count", Better: lower},
	{Name: "he.drop_busy_ms", Unit: "ms", Better: lower},
	{Name: "he.limb_ops", Unit: "count", Better: lower},
	// core: compile, staging, and the core.Trace of each probe pass.
	{Name: "core.compile_ms", Unit: "ms", Better: lower},
	{Name: "core.shard_ms", Unit: "ms", Better: lower},
	{Name: "core.prepare_ms", Unit: "ms", Better: lower},
	{Name: "core.artifact_kb", Unit: "kB", Better: lower},
	{Name: "core.chain_levels", Unit: "count", Better: lower},
	{Name: "core.pass_ms", Unit: "ms", Better: lower},
	{Name: "core.compare_ms", Unit: "ms", Better: lower},
	{Name: "core.reshuffle_ms", Unit: "ms", Better: lower},
	{Name: "core.levels_ms", Unit: "ms", Better: lower},
	{Name: "core.accumulate_ms", Unit: "ms", Better: lower},
	{Name: "core.shuffle_ms", Unit: "ms", Better: lower},
	{Name: "core.compare_limb_ops", Unit: "count", Better: lower},
	{Name: "core.reshuffle_limb_ops", Unit: "count", Better: lower},
	{Name: "core.levels_limb_ops", Unit: "count", Better: lower},
	{Name: "core.accumulate_limb_ops", Unit: "count", Better: lower},
	{Name: "core.shuffle_limb_ops", Unit: "count", Better: lower},
	{Name: "core.query_limbs", Unit: "count", Better: lower},
	{Name: "core.branchvec_limbs", Unit: "count", Better: lower},
	{Name: "core.result_limbs", Unit: "count", Better: lower},
	{Name: "core.result_noise_bits", Unit: "bits", Better: higher},
	{Name: "core.stage_sum_share", Unit: "share", Better: higher},
	// copse: Service and batcher, from public-call wall times and Stats deltas.
	{Name: "copse.encrypt_ms", Unit: "ms", Better: lower},
	{Name: "copse.classify_ms", Unit: "ms", Better: lower},
	{Name: "copse.decrypt_ms", Unit: "ms", Better: lower},
	{Name: "copse.request_tail_ms", Unit: "ms", Better: lower},
	{Name: "copse.request_tail_pct", Unit: "%", Better: higher},
	{Name: "copse.pass_count", Unit: "count", Better: lower},
	{Name: "copse.queries_per_pass", Unit: "count", Better: higher},
	{Name: "copse.batch_fill", Unit: "share", Better: higher},
	{Name: "copse.batch_wait_ms", Unit: "ms", Better: lower},
	{Name: "copse.queue_wait_ms", Unit: "ms", Better: lower},
	{Name: "copse.request_overhead_ms", Unit: "ms", Better: lower},
	{Name: "copse.shed", Unit: "count", Better: lower},
	{Name: "copse.deadline_rejects", Unit: "count", Better: lower},
	{Name: "copse.failures", Unit: "count", Better: lower},
	// cluster: FanoutTrace, worker Stats, and a counting RoundTripper.
	{Name: "cluster.addshard_ms", Unit: "ms", Better: lower},
	{Name: "cluster.refresh_ms", Unit: "ms", Better: lower},
	{Name: "cluster.encrypt_ms", Unit: "ms", Better: lower},
	{Name: "cluster.fanout_ms", Unit: "ms", Better: lower},
	{Name: "cluster.merge_ms", Unit: "ms", Better: lower},
	{Name: "cluster.decode_ms", Unit: "ms", Better: lower},
	{Name: "cluster.worker_pass_ms", Unit: "ms", Better: lower},
	{Name: "cluster.fanout_overhead_ms", Unit: "ms", Better: lower},
	{Name: "cluster.wire_kb_per_request", Unit: "kB", Better: lower},
	{Name: "cluster.http_calls_per_request", Unit: "count", Better: lower},
	{Name: "cluster.retries", Unit: "count", Better: lower},
	{Name: "cluster.hedges", Unit: "count", Better: lower},
	// bench: the harness itself.
	{Name: "bench.samples", Unit: "count", Better: higher},
	{Name: "bench.wrong_answers", Unit: "count", Better: lower},
	{Name: "bench.gen_lag_p90_ms", Unit: "ms", Better: lower},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: lower},
}

// workload is one traffic shape against one deployment of the system.
// Everything not named here is the library default.
type workload struct {
	Name string
	Why  string // one line; BENCHMARK.json records it
	// gated workloads are the ones BENCHMARK.json lists, so the ones a
	// later change is accepted or rejected on. The driver's time limit
	// leaves room for three at a window long enough to repeat on a shared
	// host; the other two run with them under `go run ./bench`.
	gated bool

	forest   string // "prec16" or "depth4" (Table 6), or "wide8"
	scenario copse.Scenario
	shuffle  bool // CompileOptions.PlanShuffle + WithShuffle: the §7.2.2 result shuffle
	batcher  bool // WithBatchWindow(20ms) + WithMaxInFlight(1)
	shards   int  // 0: one in-process Service; n: n cluster workers behind a Gateway

	// Traffic. clients > 0 is a closed loop (each client sends its next
	// request when the last one is answered); clients == 0 is an open
	// loop at rate requests/s, each request timed from when it was due
	// and failed if it takes longer than limit.
	clients int
	rate    float64
	limit   time.Duration
	// batch is the queries per request; 0 means the model's capacity.
	batch int
	// probeBatch is the queries per traced probe pass (0: capacity): the
	// fill the workload's own passes run at.
	probeBatch int
}

const batchWindow = 20 * time.Millisecond

var workloads = []workload{
	{
		Name:     "single-compare",
		Why:      "prec16 under Offload, one query per pass: 16-bit ct-ct compare at the top of the chain dominates; batcher and cluster do nothing",
		gated:    true,
		forest:   "prec16",
		scenario: copse.ScenarioOffload,
		clients:  1, batch: 1, probeBatch: 1,
	},
	{
		Name:     "single-matvec",
		Why:      "wide8 (8 trees x 15 branches) under Offload with result shuffle: BSGS mat-vecs, rotations and key switching dominate; compare is minor",
		forest:   "wide8",
		scenario: copse.ScenarioOffload,
		shuffle:  true,
		clients:  1, batch: 1, probeBatch: 1,
	},
	{
		Name:     "batch-saturated",
		Why:      "depth4 plaintext model, 32 closed-loop clients on the dynamic batcher: every pass is full, so pass amortisation sets throughput",
		gated:    true,
		forest:   "depth4",
		scenario: copse.ScenarioServerModel,
		batcher:  true,
		clients:  32, batch: 1,
	},
	{
		Name:     "batch-trickle",
		Why:      "same service, open loop at 1.5 q/s (a third of capacity at fill 1/16): passes run nearly empty, so batcher linger and queueing are pure added latency",
		forest:   "depth4",
		scenario: copse.ScenarioServerModel,
		batcher:  true,
		rate:     1.5, limit: 2 * time.Second, batch: 1, probeBatch: 1,
	},
	{
		Name:     "cluster-2shard",
		Why:      "wide8 split over two workers behind a gateway on loopback: the only workload where wire encoding, HTTP fan-out and merge do work",
		gated:    true,
		forest:   "wide8",
		scenario: copse.ScenarioServerModel,
		shards:   2,
		clients:  1,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
