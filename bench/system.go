package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"copse"
	"copse/internal/cluster"
	"copse/internal/model"
	"copse/internal/synth"
)

// wide8ShapeSeed fixes the tree shapes and feature assignments of the
// wide8 forest. Its cost — packing width, batch capacity, op counts —
// follows from those, so they stay the same under every -seed; the
// thresholds and leaf labels, which cost nothing, are redrawn per seed.
const wide8ShapeSeed = 1

// workerKeySeed is the shared key seed of the cluster workers (every
// node must derive the same key set; cluster.WorkerConfig requires it).
const workerKeySeed = 42

// generateForest builds the workload's model. The Table 6 models are the
// paper's fixed suite; wide8 takes its private values from seed.
func generateForest(name string, seed uint64) (*model.Forest, error) {
	if name == "wide8" {
		f, err := synth.Generate(synth.ForestSpec{
			Name:            name,
			NumFeatures:     4,
			NumLabels:       3,
			Precision:       8,
			MaxDepth:        5,
			BranchesPerTree: []int{15, 15, 15, 15, 15, 15, 15, 15},
			Seed:            wide8ShapeSeed,
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewPCG(seed, 0xf0e57))
		f.Walk(func(_ int, n *model.Node) {
			if n.Leaf {
				n.Label = rng.IntN(len(f.Labels))
			} else {
				n.Threshold = rng.Uint64N(1 << uint(f.Precision))
			}
		})
		return f, f.Validate()
	}
	for _, mb := range synth.Microbenchmarks() {
		if mb.Name == name {
			return synth.Generate(mb.Spec)
		}
	}
	return nil, fmt.Errorf("bench: unknown forest %q", name)
}

// setupTimes splits one set-up by layer.
type setupTimes struct {
	total    time.Duration
	compile  time.Duration // copse.Compile
	shard    time.Duration // copse.ShardForest
	register time.Duration // Service.Register incl. key generation (in-process workloads)
	addShard time.Duration // sum over workers of Worker.AddShard incl. key generation
	// firstAddShard is worker 0's AddShard alone.
	firstAddShard time.Duration
	refresh       time.Duration // Gateway.Refresh: probe + key material + meta fetch
}

// system is one deployment of the program under test: an in-process
// Service, or workers behind a gateway.
type system struct {
	w        workload
	forest   *model.Forest
	compiled *copse.Compiled
	shardsC  []*copse.Compiled // cluster only
	capacity int
	setup    setupTimes

	svc *copse.Service // in-process workloads

	gw      *cluster.Gateway
	workers []*cluster.Worker
	servers []*httptest.Server
}

// serviceOptions are the workload's non-default Service options.
func (w workload) serviceOptions() []copse.Option {
	opts := []copse.Option{copse.WithScenario(w.scenario)}
	if w.shuffle {
		opts = append(opts, copse.WithShuffle(true))
	}
	if w.batcher {
		opts = append(opts, copse.WithBatchWindow(batchWindow), copse.WithMaxInFlight(1))
	}
	return opts
}

// build performs one complete set-up: generate forest, compile, (shard,)
// stage with key generation, (refresh the gateway). rt, when non-nil,
// becomes the transport of the gateway's HTTP client (traced runs count
// calls with it). Set-up spans go to rec.
func build(w workload, seed uint64, rec *recorder, rt *countingTransport) (_ *system, err error) {
	start := time.Now()
	sys := &system{w: w}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	if sys.forest, err = generateForest(w.forest, seed); err != nil {
		return nil, err
	}
	_, sys.setup.compile, err = rec.timed("core.compile", 0, 0, func(int) (err error) {
		sys.compiled, err = copse.Compile(sys.forest, copse.CompileOptions{Slots: slots, PlanShuffle: w.shuffle})
		return err
	})
	if err != nil {
		return nil, err
	}
	if w.shards == 0 {
		sys.svc = copse.NewService(w.serviceOptions()...)
		_, sys.setup.register, err = rec.timed("copse.register", 0, 0, func(int) error {
			return sys.svc.Register(modelName, sys.compiled)
		})
		if err != nil {
			return nil, err
		}
		sys.capacity = sys.compiled.Meta.BatchCapacity()
		sys.setup.total = time.Since(start)
		return sys, nil
	}

	var manifest *copse.ShardManifest
	_, sys.setup.shard, err = rec.timed("core.shard", 0, 0, func(int) (err error) {
		sys.shardsC, manifest, err = copse.ShardForest(sys.compiled, w.shards)
		return err
	})
	if err != nil {
		return nil, err
	}
	var urls []string
	for _, shard := range sys.shardsC {
		worker := cluster.NewWorker(cluster.WorkerConfig{Seed: workerKeySeed})
		sys.workers = append(sys.workers, worker)
		_, d, err := rec.timed("cluster.addshard", 0, 0, func(int) error {
			return worker.AddShard(modelName, manifest, shard)
		})
		if err != nil {
			return nil, err
		}
		sys.setup.addShard += d
		if len(sys.workers) == 1 {
			sys.setup.firstAddShard = d
		}
		srv := httptest.NewServer(worker.Handler())
		sys.servers = append(sys.servers, srv)
		urls = append(urls, srv.URL)
	}
	cfg := cluster.GatewayConfig{Workers: urls}
	if rt != nil {
		cfg.Client = &http.Client{Transport: rt}
	}
	sys.gw = cluster.NewGateway(cfg)
	_, sys.setup.refresh, err = rec.timed("cluster.refresh", 0, 0, func(id int) error {
		if rt != nil {
			rt.under(id, 0)
		}
		return sys.gw.Refresh(context.Background())
	})
	if err != nil {
		return nil, err
	}
	sys.capacity = manifest.Meta.BatchCapacity()
	sys.setup.total = time.Since(start)
	return sys, nil
}

func (s *system) close() {
	if s.gw != nil {
		s.gw.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
	if s.svc != nil {
		s.svc.Close()
	}
}

// services lists every Service that runs passes for this system.
func (s *system) services() []*copse.Service {
	if s.svc != nil {
		return []*copse.Service{s.svc}
	}
	out := make([]*copse.Service, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.Service()
	}
	return out
}

// requestBatch is the workload's queries per request.
func (s *system) requestBatch() int {
	if s.w.batch > 0 {
		return s.w.batch
	}
	return s.capacity
}

// answer is one decoded classification in the form the oracle checks.
type answer struct {
	votes   []int
	perTree []int // nil when the result was shuffled
}

// reply is what one request returned, with the per-call wall times the
// three-call path and the gateway expose.
type reply struct {
	answers                   []answer
	encrypt, classify, decode time.Duration
	trace                     *copse.Trace         // three-call path only
	fanout                    *cluster.FanoutTrace // cluster only
}

// request sends one request the way the workload's client would:
// plaintext features in, decoded answers out.
func (s *system) request(ctx context.Context, queries [][]uint64) (*reply, error) {
	switch {
	case s.gw != nil:
		results, trace, err := s.gw.Classify(ctx, modelName, queries)
		if err != nil {
			return nil, err
		}
		r := &reply{fanout: trace}
		for _, res := range results {
			r.answers = append(r.answers, answer{votes: res.Votes, perTree: res.PerTree})
		}
		return r, nil
	case s.w.batcher:
		results, err := s.svc.ClassifyBatch(ctx, modelName, queries)
		if err != nil {
			return nil, err
		}
		return &reply{answers: s.w.answers(results)}, nil
	}
	return threeCalls(ctx, s.svc, s.w, queries, spanCtx{})
}

// spanCtx says where one request's spans go: into rec, under parent,
// with tb (the timing decorator of the Service in use) told which span
// its he.<op> spans belong to. The zero value records nothing.
type spanCtx struct {
	rec             *recorder
	tb              *timedBackend
	parent, request int
}

func (sc spanCtx) under(id int) {
	if sc.tb != nil {
		sc.tb.under(id, sc.request)
	}
}

// threeCalls is the paper's client/server split on one Service:
// EncryptQueryBatch, Classify, DecryptResultBatch, each a span.
func threeCalls(ctx context.Context, svc *copse.Service, w workload, queries [][]uint64, sc spanCtx) (*reply, error) {
	r := &reply{}
	var q *copse.Query
	var enc *copse.EncryptedResult
	var results []*copse.Result
	var err error
	_, r.encrypt, err = sc.rec.timed("copse.encrypt", sc.parent, sc.request, func(id int) (err error) {
		sc.under(id)
		q, err = svc.EncryptQueryBatch(modelName, queries)
		return err
	})
	if err != nil {
		return nil, err
	}
	classifyStart := time.Now()
	classifyID, d, err := sc.rec.timed("copse.classify", sc.parent, sc.request, func(id int) (err error) {
		sc.under(id)
		enc, r.trace, err = svc.Classify(ctx, modelName, q)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.classify = d
	stageSpans(sc.rec, classifyID, sc.request, classifyStart, r.trace)
	_, r.decode, err = sc.rec.timed("copse.decrypt", sc.parent, sc.request, func(id int) (err error) {
		sc.under(id)
		results, err = svc.DecryptResultBatch(modelName, enc)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.answers = w.answers(results)
	return r, nil
}

// stageSpans synthesises the five pipeline-stage spans of one pass from
// its core.Trace and files the he.<op> spans recorded during the pass
// under the stage they started in.
func stageSpans(rec *recorder, classifyID, request int, start time.Time, t *copse.Trace) {
	if t == nil {
		return
	}
	rec.layStages(classifyID, request, start, classifyID, "he.", []stage{
		{"core.compare", t.Compare}, {"core.reshuffle", t.Reshuffle}, {"core.levels", t.Levels},
		{"core.accumulate", t.Accumulate}, {"core.shuffle", t.Shuffle},
	})
}

func (w workload) answers(results []*copse.Result) []answer {
	out := make([]answer, len(results))
	for i, res := range results {
		out[i] = answer{votes: res.Votes}
		if !w.shuffle {
			out[i].perTree = res.PerTree
		}
	}
	return out
}

// check compares one decoded answer with the plaintext forest — the
// specification. Shuffled results carry votes only.
func check(f *model.Forest, features []uint64, a answer) bool {
	want := f.Classify(features)
	votes := make([]int, len(f.Labels))
	for _, label := range want {
		votes[label]++
	}
	return slices.Equal(a.votes, votes) && (a.perTree == nil || slices.Equal(a.perTree, want))
}

// randomQueries draws n feature vectors within the model's precision.
func randomQueries(rng *rand.Rand, f *model.Forest, n int) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		out[i] = make([]uint64, f.NumFeatures)
		for j := range out[i] {
			out[i][j] = rng.Uint64N(1 << uint(f.Precision))
		}
	}
	return out
}

// artifactKB is the serialized size of the compiled model.
func artifactKB(c *copse.Compiled) (float64, error) {
	var buf bytes.Buffer
	if err := copse.WriteArtifact(&buf, c); err != nil {
		return 0, err
	}
	return float64(buf.Len()) / 1024, nil
}
