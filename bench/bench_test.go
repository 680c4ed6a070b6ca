package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"copse"
)

// TestSmoke builds every workload and runs two requests through it, so
// a later change that renames a public call the benchmark makes fails
// tier-1 at once. Two workloads take the traced path instead of the
// untraced one (it makes the same calls and more): the in-process probe
// with the result shuffle, and the cluster with its counting transport
// and shard probe. The workloads run side by side to fit in 15 s.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"single-compare", "batch-saturated", "batch-trickle"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, _ := workloadByName(name)
			res, err := run(w, options{seed: 1, plan: smokePlan(2)})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted != 2 || res.Failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d, want true 2 0", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || v <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
		})
	}
	for _, name := range []string{"single-matvec", "cluster-2shard"} {
		t.Run(name+"/traced", func(t *testing.T) {
			t.Parallel()
			w, _ := workloadByName(name)
			res, err := run(w, options{seed: 1, trace: true, plan: smokePlan(2)})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Metrics["bench.wrong_answers"] != 0 {
				t.Error("wrong answers")
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s missing", m.Name)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, must := range []string{"he.mul_count", "core.pass_ms", "core.compare_limb_ops", "copse.classify_ms", "ring.ntt_us.hi", "bgv.mul_relin_us.lo"} {
				if res.Metrics[must] <= 0 {
					t.Errorf("%s = %v, want > 0", must, res.Metrics[must])
				}
			}
			names := map[string]bool{}
			for _, s := range res.spans {
				names[s.Name] = true
			}
			want := []string{"core.compile", "copse.register", "request", "copse.encrypt", "copse.classify", "copse.decrypt", "core.compare", "he.mul"}
			if w.shards > 0 {
				want = append(want, "core.shard", "cluster.addshard", "cluster.refresh", "cluster.classify", "cluster.fanout", "cluster.http")
			}
			for _, n := range want {
				if !names[n] {
					t.Errorf("no %s span", n)
				}
			}
		})
	}
}

// TestManifest keeps BENCHMARK.json and the Go tables the same, and
// inside the limits the benchmark contract sets.
func TestManifest(t *testing.T) {
	type workloadRow struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type manifest struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadRow `json:"workloads"`
		EndToEnd   []metric      `json:"end_to_end"`
		PerLayer   []metric      `json:"per_layer"`
	}
	want := manifest{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		if w.gated {
			want.Workloads = append(want.Workloads, workloadRow{w.Name, w.Why})
		}
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in spec.go; it should read:\n%s", wantJSON)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %+v is outside the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower && m.Bound > 0)
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(want.Workloads) < 2 || len(want.Workloads) > 8 {
		t.Error("table sizes are outside the contract")
	}
}

// TestWide8ShapeIsSeedIndependent: -seed redraws wide8's thresholds and
// labels but must not move its cost (packing width, capacity, steps).
func TestWide8ShapeIsSeedIndependent(t *testing.T) {
	var metas []copse.Meta
	var texts []string
	for _, seed := range []uint64{1, 2, 1} {
		f, err := generateForest("wide8", seed)
		if err != nil {
			t.Fatal(err)
		}
		c, err := copse.Compile(f, copse.CompileOptions{Slots: slots, PlanShuffle: true})
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, c.Meta)
		var buf bytes.Buffer
		if err := copse.FormatModel(&buf, f); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, buf.String())
	}
	if texts[0] != texts[2] {
		t.Error("the same seed gave two different forests")
	}
	if texts[0] == texts[1] {
		t.Error("two seeds gave the same forest")
	}
	a, b := metas[0], metas[1]
	if a.K != b.K || a.QPad != b.QPad || a.BatchCapacity() != b.BatchCapacity() ||
		a.RecommendedLevels != b.RecommendedLevels || !reflect.DeepEqual(a.RotationSteps, b.RotationSteps) {
		t.Errorf("wide8 cost shape moved with the seed:\n%v\n%v", a.String(), b.String())
	}
}

func TestPercentileAndTail(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {1, 1}} {
		if got := percentile(hundred, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// The tail is the highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n       int
		wantPct float64
	}{{12, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		pct, v := tail(s)
		if pct != c.wantPct {
			t.Errorf("tail of %d samples is p%v, want p%v", c.n, pct, c.wantPct)
		}
		if c.n >= 20 && float64(c.n)-v < 10 {
			t.Errorf("tail of %d samples has %v samples beyond it", c.n, float64(c.n)-v)
		}
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25].
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestBestStretch: a neighbour that slows two thirds of the window moves
// its median but not the reported numbers, and a pass's answers are
// never split between two stretches.
func TestBestStretch(t *testing.T) {
	start := time.Unix(0, 0)
	w := &window{start: start}
	at, cpu := start, time.Duration(0)
	for i := 0; i < 60; i++ {
		lat := 100 * time.Millisecond
		if i >= 10 && i < 50 {
			lat = 130 * time.Millisecond
		}
		at, cpu = at.Add(lat), cpu+2*lat
		w.samples = append(w.samples, sample{latency: lat, queries: 1, end: at, cpuAtEnd: cpu})
	}
	s := w.summarize()
	if whole := median(s.latenciesMS); whole != 130 {
		t.Fatalf("median of the whole window = %v, want 130", whole)
	}
	if s.latencyP50 != 100 || s.cpuPerQuery != 200 || math.Abs(s.throughput-10) > 1e-9 {
		t.Errorf("best stretch: p50 %v ms, %v CPU ms/query, %v q/s; want 100, 200, 10", s.latencyP50, s.cpuPerQuery, s.throughput)
	}

	// 25 passes of 16 answers each, 100 ms apart: 1.6 answers per ms
	// whichever way the cuts fall.
	w = &window{start: start}
	for i := 0; i < 25*16; i++ {
		end := start.Add(time.Duration(i/16+1)*100*time.Millisecond + time.Duration(i%16)*time.Microsecond)
		w.samples = append(w.samples, sample{latency: 200 * time.Millisecond, queries: 1, end: end, cpuAtEnd: time.Duration(i/16+1) * 150 * time.Millisecond})
	}
	if s := w.summarize(); math.Abs(s.throughput-160) > 0.01 {
		t.Errorf("throughput of full passes = %v q/s, want 160", s.throughput)
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	draw := func(seed uint64) []time.Duration {
		return arrivals(rand.New(rand.NewPCG(seed, 0xa221)), 2.5, 20*time.Second)
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave one schedule")
	}
	if len(a) != 50 || len(c) != 50 {
		t.Errorf("2.5/s over 20s gave %d and %d arrivals, want 50", len(a), len(c))
	}
	for i, d := range a {
		if d < 0 || d >= 20*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or out of the window", i, d)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "copse.classify", StartNS: 10, EndNS: 90},
		{ID: 3, Parent: 2, Name: "he.mul", StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 2, Name: "he.mul", StartNS: 40, EndNS: 70}, // overlaps 3: counted once
		{ID: 5, Parent: 2, Name: "he.add", StartNS: 80, EndNS: 95}, // runs past its parent: clipped
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 80 - 50 - 10, 3: 30, 4: 30, 5: 15} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}

	rec := newRecorder()
	at := func(ns int64) time.Time { return rec.epoch.Add(time.Duration(ns)) }
	classify := rec.begin("copse.classify", 0, 1, at(0))
	op := rec.add("he.mul", classify, 1, at(10), at(20))
	other := rec.add("he.mul", classify, 2, at(10), at(20)) // another request: left alone
	rec.end(classify, at(100))
	rec.layStages(classify, 1, at(0), classify, "he.", []stage{{"core.compare", 50}, {"core.shuffle", 0}, {"core.levels", 50}})
	got := rec.snapshot()
	if len(got) != 5 || got[3].Name != "core.compare" || got[4].Name != "core.levels" || got[4].StartNS != 50 {
		t.Fatalf("layStages recorded %+v", got[3:])
	}
	if got[op-1].Parent != got[3].ID || got[other-1].Parent != classify || got[3].Parent != classify {
		t.Errorf("layStages: parents are %d %d %d", got[op-1].Parent, got[other-1].Parent, got[3].Parent)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(scale map[string]float64, jitter float64) report {
		var r report
		for _, w := range workloads {
			for i := 0; i < 10; i++ {
				rec := runRecord{Workload: w.Name, Seed: uint64(i)}
				rec.Metrics = map[string]metricValue{}
				for _, m := range endToEnd {
					s := scale[w.Name+"/"+m.Name]
					if s == 0 {
						s = 1
					}
					rec.Metrics[m.Name] = metricValue{Value: 100 * s * (1 + jitter*float64(i-5)/5), Unit: m.Unit}
				}
				r.Runs = append(r.Runs, rec)
			}
		}
		return r
	}
	base := mk(nil, 0.01)
	bound := endToEnd[0].Bound // the same on every end-to-end metric
	cand := mk(map[string]float64{
		"single-compare/latency_p50_ms":  1 + 1.5*bound, // lower is better: regressed
		"single-compare/throughput_qps":  1 + 1.5*bound, // higher is better: improved
		"batch-saturated/throughput_qps": 1 - 1.5*bound, // regressed
		"batch-trickle/latency_p50_ms":   1 + 0.5*bound, // inside the bound
		"cluster-2shard/setup_s":         1 - 1.5*bound, // improved
	}, 0.01)
	verdicts := map[string]string{}
	for _, c := range compareReports(base, cand) {
		verdicts[c.workload+"/"+c.metric.Name] = c.verdict
	}
	if len(verdicts) != len(workloads)*len(endToEnd) {
		t.Fatalf("%d rows, want %d", len(verdicts), len(workloads)*len(endToEnd))
	}
	for pair, want := range map[string]string{
		"single-compare/latency_p50_ms":  verdictRegressed,
		"single-compare/throughput_qps":  verdictWithin,
		"batch-saturated/throughput_qps": verdictRegressed,
		"batch-trickle/latency_p50_ms":   verdictWithin,
		"cluster-2shard/setup_s":         verdictWithin,
		"single-matvec/peak_rss_mb":      verdictWithin,
	} {
		if verdicts[pair] != want {
			t.Errorf("%s: %s, want %s", pair, verdicts[pair], want)
		}
	}
	// Runs that disagree with each other by more than the bound resolve nothing.
	for _, c := range compareReports(base, mk(nil, 2*bound)) {
		if c.verdict != verdictUnresolved {
			t.Errorf("%s/%s with a spread of twice the bound: %s, want %s", c.workload, c.metric.Name, c.verdict, verdictUnresolved)
		}
	}
}
