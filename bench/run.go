package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"copse"
	"copse/internal/he"
)

// options are one workload run's settings.
type options struct {
	seed  uint64
	trace bool
	plan
}

// plan is how much of everything a run does. The full plan is the
// benchmark; the smoke plan is the test's: the same calls in the same
// order, at the smallest size that still makes each of them.
type plan struct {
	window   time.Duration // of the workload's own traffic; 0: bounded by requests
	requests int           // per call of drive; 0: bounded by window
	setups   int           // set-ups per untraced run of an in-process workload
	warmup   time.Duration // of unmeasured traffic before the window
	probes   int           // traced probe passes
	// ringCalls and bgvCalls are the timed calls per microkernel.
	ringCalls, bgvCalls kernelTimer
	forest              string // replaces the workload's model when set
}

func fullPlan(seconds float64) plan {
	return plan{
		window: time.Duration(seconds * float64(time.Second)),
		setups: setupRepeats, warmup: warmupTime, probes: tracedRequests,
		ringCalls: 200, bgvCalls: 50, // bgv kernels take milliseconds each
	}
}

// smokePlan runs every workload on the smallest Table 6 model: one
// set-up, no warm-up, n of everything else.
func smokePlan(n int) plan {
	return plan{requests: n, setups: 1, probes: n, ringCalls: kernelTimer(n), bgvCalls: kernelTimer(n), forest: "depth4"}
}

// traffic is the extent of the workload's own traffic: the given share
// of the window, or the plan's request count.
func (p plan) traffic(share float64) extent {
	return extent{dur: time.Duration(float64(p.window) * share), requests: p.requests}
}

// result is one workload run. Metrics holds every end-to-end metric
// (untraced) or every per-layer metric (traced).
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Executor  string // core.Trace.Executor of the probe passes (traced runs)
	spans     []span
}

// warmupStream keeps warm-up inputs apart from the measured stream of
// the same seed.
const warmupStream = 0x77a2

func run(w workload, o options) (*result, error) {
	if o.forest != "" {
		w.forest = o.forest
	}
	if o.trace {
		return runTraced(w, o)
	}
	return runUntraced(w, o)
}

// warmUp runs the workload's traffic unmeasured; any failure aborts the run.
func warmUp(sys *system, o options) error {
	if o.warmup == 0 {
		return nil
	}
	s := drive(sys, o.seed^warmupStream, extent{dur: o.warmup}, nil).summarize()
	if s.failed > 0 {
		return fmt.Errorf("bench: %d of %d warm-up requests failed (first error: %v)", s.failed, s.attempted, s.firstErr)
	}
	return nil
}

// runUntraced measures the end-to-end metrics: set up (several times,
// keeping the last), warm up, collect garbage, then drive traffic for
// the window with no tracing installed.
func runUntraced(w workload, o options) (*result, error) {
	repeats := o.setups
	if w.shards > 0 {
		repeats = 1 // a cluster set-up is ~4x an in-process one; see bench/README.md
	}
	var sys *system
	var setups []float64
	for i := 0; i < repeats; i++ {
		if sys != nil {
			// Drop the discarded set-up's keys before building the next,
			// so peak_rss_mb is one deployment's memory, not three.
			sys.close()
			sys = nil
			runtime.GC()
		}
		var err error
		if sys, err = build(w, o.seed, nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, sys.setup.total.Seconds())
	}
	defer sys.close()
	if err := warmUp(sys, o); err != nil {
		return nil, err
	}
	runtime.GC()
	win := drive(sys, o.seed, o.traffic(1), nil)
	s := win.summarize()
	if s.okQueries == 0 {
		return nil, fmt.Errorf("bench: no request of %d succeeded (first error: %v)", s.attempted, s.firstErr)
	}
	return &result{
		Correct:   s.wrong == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics: map[string]float64{
			"latency_p50_ms":   s.latencyP50,
			"throughput_qps":   s.throughput,
			"cpu_ms_per_query": s.cpuPerQuery,
			"peak_rss_mb":      peakRSSMB(),
			"setup_s":          median(setups),
		},
	}, nil
}

// runTraced measures the per-layer metrics in three parts: (A) the
// workload's own traffic for half the window, read through Stats deltas
// (and, on the cluster, FanoutTrace and the counting transport); (B) a
// fixed number of probe passes through a second Service whose backend is
// the timing decorator, which gives the core.Trace stage split and the
// he.<op> spans; (C) the ring and bgv microkernels.
func runTraced(w workload, o options) (*result, error) {
	rec := newRecorder()
	var rt *countingTransport // the cluster's wire boundary
	if w.shards > 0 {
		rt = newCountingTransport(rec)
	}
	sys, err := build(w, o.seed, rec, rt)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	m := make(map[string]float64, len(perLayer))
	for _, pm := range perLayer {
		m[pm.Name] = 0
	}
	m["core.compile_ms"] = ms(sys.setup.compile)
	m["core.shard_ms"] = ms(sys.setup.shard)
	m["cluster.addshard_ms"] = ms(sys.setup.addShard)
	m["cluster.refresh_ms"] = ms(sys.setup.refresh)
	if m["core.artifact_kb"], err = artifactKB(sys.compiled); err != nil {
		return nil, err
	}

	// (A) the workload's own traffic.
	if err := warmUp(sys, o); err != nil {
		return nil, err
	}
	runtime.GC()
	before := sys.stats()
	var calls0, bytes0 int64
	if rt != nil {
		calls0, bytes0 = rt.calls.Load(), rt.bytes.Load()
	}
	win := drive(sys, o.seed, o.traffic(0.5), rt)
	s := win.summarize()
	if s.okQueries == 0 {
		return nil, fmt.Errorf("bench: no request of %d succeeded (first error: %v)", s.attempted, s.firstErr)
	}
	untracedPass := trafficMetrics(m, sys, win, s, before, sys.stats())
	if rt != nil {
		m["cluster.http_calls_per_request"] = float64(rt.calls.Load()-calls0) / float64(s.attempted)
		m["cluster.wire_kb_per_request"] = float64(rt.bytes.Load()-bytes0) / 1024 / float64(s.attempted)
		if m["cluster.retries"], m["cluster.hedges"], err = gatewayCounters(sys.gw); err != nil {
			return nil, err
		}
	}

	// (B) probe passes through the timing decorator.
	res := &result{Attempted: s.attempted, Failed: s.failed, Metrics: m}
	wrong, err := probe(sys, o, rec, res)
	if err != nil {
		return nil, err
	}
	if untracedPass > 0 {
		m["bench.trace_overhead_share"] = m["core.pass_ms"]/untracedPass - 1
	}
	m["bench.wrong_answers"] = float64(s.wrong + wrong)
	res.Correct = s.wrong+wrong == 0

	// (C) microkernels.
	if err := ringKernels(m, o.ringCalls); err != nil {
		return nil, err
	}
	if err := bgvKernels(m, o.bgvCalls); err != nil {
		return nil, err
	}
	res.spans = rec.snapshot()
	return res, nil
}

// stats snapshots every Service that runs this system's passes.
func (s *system) stats() []copse.ServiceStats {
	var out []copse.ServiceStats
	for _, svc := range s.services() {
		out = append(out, svc.Stats())
	}
	return out
}

// trafficMetrics fills the copse.*, cluster.* and bench.* metrics that
// describe the workload's own traffic, and returns the untraced pass
// time in ms.
func trafficMetrics(m map[string]float64, sys *system, win *window, s summary, before, after []copse.ServiceStats) (passMS float64) {
	var passes, queries, batcherPasses, coalesced int64
	var latency, queueWait, batchWait time.Duration
	slowestWorkerMS := 0.0
	for i := range after {
		a, b := after[i], before[i]
		passes += a.Requests - b.Requests
		queries += a.Queries - b.Queries
		batcherPasses += a.BatcherPasses - b.BatcherPasses
		coalesced += a.CoalescedQueries - b.CoalescedQueries
		latency += a.Latency - b.Latency
		queueWait += a.QueueWait - b.QueueWait
		batchWait += a.BatchWait - b.BatchWait
		m["copse.shed"] += float64(a.Shed - b.Shed)
		m["copse.deadline_rejects"] += float64(a.DeadlineRejects - b.DeadlineRejects)
		m["copse.failures"] += float64(a.Failures - b.Failures)
		if n := a.Requests - b.Requests; n > 0 {
			slowestWorkerMS = max(slowestWorkerMS, ms(a.Latency-b.Latency)/float64(n))
		}
	}
	per := func(total time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return ms(total) / float64(n)
	}
	// The untraced pass time: the median core.Trace total where the
	// workload's own requests return traces, the Stats mean where they go
	// through the batcher or the gateway (a Service exposes sums only).
	var totals []float64
	for _, sm := range win.samples {
		if sm.reply != nil && sm.reply.trace != nil {
			totals = append(totals, ms(sm.reply.trace.Total))
		}
	}
	if passMS = median(totals); len(totals) == 0 {
		passMS = per(latency, passes)
	}
	m["copse.pass_count"] = float64(passes)
	if passes > 0 {
		m["copse.queries_per_pass"] = float64(queries) / float64(passes)
	}
	if batcherPasses > 0 {
		m["copse.batch_fill"] = float64(coalesced) / float64(batcherPasses*int64(sys.capacity))
	}
	m["copse.batch_wait_ms"] = per(batchWait, coalesced)
	m["copse.queue_wait_ms"] = per(queueWait, passes)
	requestP50 := median(s.latenciesMS)
	m["copse.request_overhead_ms"] = requestP50 - passMS - m["copse.batch_wait_ms"] - m["copse.queue_wait_ms"]
	m["copse.request_tail_pct"], m["copse.request_tail_ms"] = tail(s.latenciesMS)

	m["bench.samples"] = float64(s.attempted)
	var lags, enc, fan, mrg, dec []float64
	for _, sm := range win.samples {
		if sys.w.clients == 0 {
			lags = append(lags, ms(sm.lag))
		}
		if sm.reply != nil && sm.reply.fanout != nil {
			ft := sm.reply.fanout
			enc, fan = append(enc, ms(ft.Encrypt)), append(fan, ms(ft.Fanout))
			mrg, dec = append(mrg, ms(ft.Merge)), append(dec, ms(ft.Decode))
		}
	}
	if len(lags) > 0 {
		m["bench.gen_lag_p90_ms"] = percentile(sortedCopy(lags), 90)
	}
	if len(fan) > 0 {
		m["cluster.encrypt_ms"], m["cluster.fanout_ms"] = median(enc), median(fan)
		m["cluster.merge_ms"], m["cluster.decode_ms"] = median(mrg), median(dec)
		m["cluster.worker_pass_ms"] = passMS
		m["cluster.fanout_overhead_ms"] = median(fan) - slowestWorkerMS
	}
	return passMS
}

// probeRequestBase keeps probe request IDs apart from traffic ones.
const probeRequestBase = 1_000_000

// probe runs the traced passes: a second Service over the timing
// decorator around the first one's backend (same keys, same chain),
// driven one request at a time through the three public calls. On the
// cluster it probes shard 0 on worker 0's backend — the pass a worker
// runs for every gateway request.
func probe(sys *system, o options, rec *recorder, res *result) (wrong int, err error) {
	m, w := res.Metrics, sys.w
	backendOf, compiled, forest, staged := sys.svc, sys.compiled, sys.forest, sys.setup.register
	if sys.svc == nil {
		backendOf, compiled, staged = sys.workers[0].Service(), sys.shardsC[0], sys.setup.firstAddShard
		// A shard answers for its own trees only.
		sub := *forest
		sub.Trees = forest.Trees[compiled.Shard.TreeStart:compiled.Shard.TreeEnd]
		forest = &sub
	}
	inner := backendOf.Backend()
	tb := wrapTimed(inner, rec)
	// The probe Services share sys's backend, which sys.close releases;
	// they are not closed themselves. WithSeed fixes the shuffle
	// permutations (it does nothing else on an external backend), so op
	// counts repeat exactly for a seed.
	serviceOver := func(b he.Backend, extra ...copse.Option) *copse.Service {
		return copse.NewService(append(extra, copse.WithExternalBackend(b),
			copse.WithScenario(w.scenario), copse.WithShuffle(w.shuffle), copse.WithSeed(o.seed))...)
	}
	svc := serviceOver(tb)
	_, prepare, err := rec.timed("copse.register", 0, 0, func(id int) error {
		tb.under(id, 0) // staging encodes and encrypts the model through the decorator
		return svc.Register(modelName, compiled)
	})
	if err != nil {
		return 0, err
	}
	m["core.prepare_ms"] = ms(prepare)
	m["hebgv.keygen_ms"] = ms(staged - prepare)
	if km, ok := inner.(interface {
		KeyMaterial() (actual, topLevel int64)
	}); ok {
		actual, _ := km.KeyMaterial()
		m["hebgv.eval_key_mb"] = float64(actual) / (1 << 20)
	}
	if ld, ok := inner.(he.LevelDropper); ok {
		m["core.chain_levels"] = float64(ld.MaxLevel() + 1)
	}

	batch := w.probeBatch
	if batch == 0 {
		batch = sys.capacity
	}
	requests := o.probes
	oneRequest := func(svc *copse.Service, sc spanCtx, queries [][]uint64) (*reply, error) {
		start := time.Now()
		sc.parent = sc.rec.begin("request", 0, sc.request, start)
		rep, err := threeCalls(context.Background(), svc, w, queries, sc)
		sc.rec.end(sc.parent, time.Now())
		if err != nil {
			return nil, err
		}
		for i, a := range rep.answers {
			if compiled.Shard != nil {
				a.perTree = nil // shard decodes index the parent forest's trees
			}
			if !check(forest, queries[i], a) {
				wrong++
			}
		}
		return rep, nil
	}

	tb.reset() // drop the staging ops: the he.* metrics are per probe pass
	rng := rand.New(rand.NewPCG(o.seed, 0xb0be))
	var encMS, clsMS, decMS, share []float64
	stages := map[string][]float64{}
	limbOps := map[string]float64{}
	var last *copse.Trace
	for i := 1; i <= requests; i++ {
		rep, err := oneRequest(svc, spanCtx{rec: rec, tb: tb, request: probeRequestBase + i}, randomQueries(rng, forest, batch))
		if err != nil {
			return wrong, err
		}
		t := rep.trace
		if t == nil {
			return wrong, errors.New("bench: Classify returned no trace")
		}
		last = t
		encMS, clsMS, decMS = append(encMS, ms(rep.encrypt)), append(clsMS, ms(rep.classify)), append(decMS, ms(rep.decode))
		sum := t.Compare + t.Reshuffle + t.Levels + t.Accumulate + t.Shuffle
		share = append(share, float64(sum)/float64(t.Total))
		for name, d := range map[string]time.Duration{
			"pass": t.Total, "compare": t.Compare, "reshuffle": t.Reshuffle,
			"levels": t.Levels, "accumulate": t.Accumulate, "shuffle": t.Shuffle,
		} {
			stages[name] = append(stages[name], ms(d))
		}
		for name, ops := range map[string]he.OpCounts{
			"compare": t.CompareOps, "reshuffle": t.ReshuffleOps, "levels": t.LevelOps,
			"accumulate": t.AccumulateOps, "shuffle": t.ShuffleOps,
		} {
			limbOps[name] += float64(ops.LimbOps)
		}
	}
	res.Attempted += requests
	res.Executor = last.Executor

	n := float64(requests)
	m["copse.encrypt_ms"], m["copse.classify_ms"], m["copse.decrypt_ms"] = median(encMS), median(clsMS), median(decMS)
	for name, vals := range stages {
		m["core."+name+"_ms"] = median(vals)
	}
	for name, total := range limbOps {
		m["core."+name+"_limb_ops"] = total / n
		m["he.limb_ops"] += total / n
	}
	m["core.stage_sum_share"] = median(share)
	m["core.query_limbs"] = float64(last.Limbs.Query)
	m["core.branchvec_limbs"] = float64(last.Limbs.BranchVec)
	m["core.result_limbs"] = float64(last.Limbs.Result)
	for k := opMul; k <= opDrop; k++ {
		m["he."+opNames[k]+"_count"] = float64(tb.count[k].Load()) / n
		m["he."+opNames[k]+"_busy_ms"] = float64(tb.busyNS[k].Load()) / 1e6 / n
	}
	if rot := tb.count[opRotate].Load(); rot > 0 {
		m["he.rotate_hoisted_share"] = float64(tb.hoisted.Load()) / float64(rot)
	}

	// One extra pass with noise measurement, on the undecorated backend.
	// It forces the generic executor, so nothing above is taken from it.
	noisy := serviceOver(inner, copse.WithNoiseMeasurement(true))
	if err := noisy.Register(modelName, compiled); err != nil {
		return wrong, err
	}
	rep, err := oneRequest(noisy, spanCtx{}, randomQueries(rng, forest, batch))
	if err != nil {
		return wrong, err
	}
	res.Attempted++
	res.Failed += wrong
	m["core.result_noise_bits"] = float64(rep.trace.Noise.Result)
	return wrong, nil
}
