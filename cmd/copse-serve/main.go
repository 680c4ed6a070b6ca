// Command copse-serve runs a copse.Service behind an HTTP/JSON API: it
// loads one or more compiled model artifacts onto a shared backend and
// answers classification batches concurrently, slot-packing each
// request's queries into as few homomorphic passes as possible.
//
// Usage:
//
//	copse-serve -listen :8080 -model fraud=fraud.copse -model churn=churn.copse
//	copse-serve -listen :8080 -model m=income5.copse -backend clear -workers 8
//	copse-serve -listen :8080 -model m=income5.copse -batchwindow 20ms
//
// With -batchwindow, concurrent requests for the same model coalesce
// into shared slot-packed homomorphic passes (the dynamic batcher):
// each request waits up to the window for co-riders, then one pass
// answers every rider's queries.
//
// Cluster modes (DESIGN.md §12) — a worker node serves shard
// artifacts produced by copse-compile -shards, a gateway fans queries
// across the workers and merges the encrypted per-shard vote sums:
//
//	copse-serve -worker -listen :9001 -seed 42 \
//	    -manifest fraud=fraud.manifest.json -shards fraud=fraud.shard0.copse
//	copse-serve -gateway -listen :8080 -workers http://h1:9001,http://h2:9002
//
// Resilience knobs (DESIGN.md §15): -max-inflight plus -shedqueue bound
// the admission queue — overflow is rejected with a typed 429 +
// Retry-After instead of queuing without bound (worker and single-node
// modes); -breaker sets the consecutive-failure threshold that opens a
// worker's circuit breaker and -retries the bounded retry rounds over a
// shard's holders (gateway mode).
//
// Endpoints:
//
//	POST /v1/classify  {"model": "fraud", "queries": [[3,5,...], ...]}
//	  → {"model": "fraud", "results": [{"label": ..., "labelName": ...,
//	     "votes": [...], "perTree": [...]}, ...], "latencyMS": ...}
//	GET  /v1/models    → per-model shape and batch capacity
//	GET  /v1/stats     → request/query counters, latency p50/p95/p99
//	GET  /healthz      → 200 once serving
//
// Every mode shuts down gracefully on SIGINT/SIGTERM: the listener
// closes, in-flight requests drain (bounded by -drain), then the
// service and its key material are released.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"copse"
	"copse/internal/cluster"
	"copse/internal/he/hebgv"
)

type modelFlags map[string]string

func (m modelFlags) String() string { return fmt.Sprint(map[string]string(m)) }

func (m modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want NAME=ARTIFACT, got %q", v)
	}
	if _, dup := m[name]; dup {
		return fmt.Errorf("model %q given twice", name)
	}
	m[name] = path
	return nil
}

// shardListFlags collects -shards NAME=PATH[,PATH...] (repeatable and
// accumulating: a worker may hold several shards of one forest).
type shardListFlags map[string][]string

func (m shardListFlags) String() string { return fmt.Sprint(map[string][]string(m)) }

func (m shardListFlags) Set(v string) error {
	name, paths, ok := strings.Cut(v, "=")
	if !ok || name == "" || paths == "" {
		return fmt.Errorf("want NAME=SHARD[,SHARD...], got %q", v)
	}
	for _, p := range strings.Split(paths, ",") {
		if p = strings.TrimSpace(p); p != "" {
			m[name] = append(m[name], p)
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("copse-serve: ")

	models := modelFlags{}
	flag.Var(models, "model", "NAME=ARTIFACT to serve (repeatable)")
	listen := flag.String("listen", ":8080", "listen address")
	backendArg := flag.String("backend", "bgv", "bgv or clear")
	scenarioArg := flag.String("scenario", "offload", "offload, servermodel, or clienteval")
	workersArg := flag.String("workers", "", "goroutines per classification pass (empty/0 = GOMAXPROCS, 1 = sequential); in -gateway mode: comma-separated worker base URLs")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent classification cap (0 = unlimited)")
	shedQueue := flag.Int("shedqueue", 0, "load-shedding queue bound: calls beyond -max-inflight wait here; overflow is rejected with 429 + Retry-After (0 = queue without bound; needs -max-inflight)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request classification timeout")
	seed := flag.Uint64("seed", 0, "deterministic keys/encryption when non-zero (tests only — except -worker mode, where a shared seed is how the fleet derives one key set; with -shuffle it also makes every shuffle permutation predictable to anyone who knows the seed, voiding the leakage hardening)")
	shuffle := flag.Bool("shuffle", false, "shuffle results (leakage hardening, §7.2.2): responses carry per-query codebooks and vote counts instead of per-tree labels; models need CompileOptions.PlanShuffle")
	batchWindow := flag.Duration("batchwindow", 0, "dynamic batching linger: concurrent requests for the same model coalesce into shared slot-packed passes, waiting up to this long for co-riders (0 = off)")
	batchMax := flag.Int("batchmax", 0, "queries per coalesced pass cap (0 = model batch capacity; needs -batchwindow)")
	batchMinFill := flag.Int("batchminfill", 0, "fire a coalesced pass early once this many queries are pending (0 = only at capacity or linger expiry; needs -batchwindow)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline for in-flight requests")

	workerMode := flag.Bool("worker", false, "run as a cluster worker node serving shard artifacts (-manifest/-shards/-seed)")
	gatewayMode := flag.Bool("gateway", false, "run as a cluster gateway fronting -workers URL,URL,...")
	manifests := modelFlags{}
	flag.Var(manifests, "manifest", "NAME=MANIFEST.json shard manifest (worker mode, repeatable)")
	shardPaths := shardListFlags{}
	flag.Var(shardPaths, "shards", "NAME=SHARD.copse[,SHARD.copse...] shard artifacts to stage (worker mode, repeatable)")
	keyFile := flag.String("keyfile", "", "key-material wire file to load instead of deriving keys from -seed (worker mode)")
	writeKeys := flag.String("writekeys", "", "after staging, write the worker's full key material (secret included) to this wire file for distribution to other workers")
	probe := flag.Duration("probe", 2*time.Second, "worker health-probe interval (gateway mode)")
	breakerThreshold := flag.Int("breaker", 0, "consecutive worker failures that open its circuit breaker (gateway mode; 0 = default 3)")
	retries := flag.Int("retries", 0, "extra retry rounds over a shard's holders on failure, with exponential backoff (gateway mode; 0 = default 2, negative disables)")
	flag.Parse()

	if *workerMode && *gatewayMode {
		log.Fatal("-worker and -gateway are mutually exclusive")
	}
	if *gatewayMode {
		runGateway(gatewayOptions{
			listen:  *listen,
			workers: *workersArg,
			probe:   *probe,
			timeout: *timeout,
			drain:   *drain,
			breaker: *breakerThreshold,
			retries: *retries,
		})
		return
	}

	workers := 0
	if *workersArg != "" {
		n, err := strconv.Atoi(*workersArg)
		if err != nil {
			log.Fatalf("-workers: want an integer outside -gateway mode, got %q", *workersArg)
		}
		workers = n
	}

	if *workerMode {
		runWorker(workerOptions{
			listen:      *listen,
			manifests:   manifests,
			shards:      shardPaths,
			seed:        *seed,
			keyFile:     *keyFile,
			writeKeys:   *writeKeys,
			workers:     workers,
			maxInFlight: *maxInFlight,
			shedQueue:   *shedQueue,
			drain:       *drain,
		})
		return
	}

	if len(models) == 0 {
		log.Fatal("need at least one -model NAME=ARTIFACT")
	}
	opts := []copse.Option{
		copse.WithWorkers(workers),
		copse.WithMaxInFlight(*maxInFlight),
		copse.WithShedQueue(*shedQueue),
		copse.WithSeed(*seed),
		copse.WithShuffle(*shuffle),
		copse.WithBatchPolicy(copse.BatchPolicy{
			Window:   *batchWindow,
			MaxBatch: *batchMax,
			MinFill:  *batchMinFill,
		}),
	}
	kind, err := copse.ParseBackend(*backendArg)
	if err != nil {
		log.Fatal(err)
	}
	scenario, err := copse.ParseScenario(*scenarioArg)
	if err != nil {
		log.Fatal(err)
	}
	opts = append(opts, copse.WithBackend(kind), copse.WithScenario(scenario))

	// Load every artifact first: the security preset (and so the shared
	// key set) is fixed by the models' common slot count before the
	// service is built.
	names := make([]string, 0, len(models))
	compiled := map[string]*copse.Compiled{}
	for name, path := range models {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		c, err := copse.ReadArtifact(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		names = append(names, name)
		compiled[name] = c
	}
	if err := registerOrder(names, compiled, scenario); err != nil {
		log.Fatal(err)
	}
	if *backendArg == "bgv" {
		preset, err := copse.SecurityForSlots(compiled[names[0]].Meta.Slots)
		if err != nil {
			log.Fatalf("%s: %v", names[0], err)
		}
		opts = append(opts, copse.WithSecurity(preset))
	}

	svc := copse.NewService(opts...)
	for _, name := range names {
		if err := svc.Register(name, compiled[name]); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		capacity, _ := svc.BatchCapacity(name)
		meta, _ := svc.Meta(name)
		log.Printf("serving %q: %s, batch capacity %d", name, meta, capacity)
	}

	if *batchWindow > 0 {
		log.Printf("dynamic batching on: linger %v, max %d, minfill %d", *batchWindow, *batchMax, *batchMinFill)
	}

	srv := &server{svc: svc, timeout: *timeout, shuffle: *shuffle}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", srv.classify)
	mux.HandleFunc("GET /v1/models", srv.models)
	mux.HandleFunc("GET /v1/stats", srv.stats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})

	if err := serveHTTP(*listen, mux, *drain, svc.Close); err != nil {
		log.Fatal(err)
	}
}

// registerOrder sorts names into register order: the longest chain the
// served scenario needs first — the first model sizes the shared backend's
// modulus chain (copse.ChainLevels) and gets the exact Galois keys, and a
// model registered later with a longer chain has its schedule clamped. Ties
// (and the non-BGV backends) stay name-sorted for determinism.
func registerOrder(names []string, compiled map[string]*copse.Compiled, scenario copse.Scenario) error {
	chain := map[string]int{}
	for _, name := range names {
		levels, err := copse.ChainLevels(compiled[name], scenario)
		if err != nil {
			return err
		}
		chain[name] = levels
	}
	sort.Slice(names, func(i, j int) bool {
		if ci, cj := chain[names[i]], chain[names[j]]; ci != cj {
			return ci > cj
		}
		return names[i] < names[j]
	})
	return nil
}

// serveHTTP runs handler on addr until the process receives SIGINT or
// SIGTERM, then drains in-flight requests (bounded by drain) and calls
// shutdown to release the service and its key material. A listener
// error (port in use, etc.) is returned immediately.
func serveHTTP(addr string, handler http.Handler, drain time.Duration, shutdown func() error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on %s", addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
		log.Printf("signal received, draining in-flight requests (up to %v)", drain)
		dctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			log.Printf("drain deadline exceeded, closing connections: %v", err)
			srv.Close()
		}
		if shutdown != nil {
			if err := shutdown(); err != nil {
				return fmt.Errorf("shutdown: %w", err)
			}
		}
		log.Printf("shutdown complete")
		return nil
	}
}

type workerOptions struct {
	listen      string
	manifests   modelFlags
	shards      shardListFlags
	seed        uint64
	keyFile     string
	writeKeys   string
	workers     int
	maxInFlight int
	shedQueue   int
	drain       time.Duration
}

func runWorker(o workerOptions) {
	log.SetPrefix("copse-serve[worker]: ")
	if len(o.manifests) == 0 {
		log.Fatal("worker mode needs at least one -manifest NAME=MANIFEST.json")
	}
	for name := range o.shards {
		if _, ok := o.manifests[name]; !ok {
			log.Fatalf("-shards %s=... has no matching -manifest %s=...", name, name)
		}
	}

	var material *hebgv.Material
	if o.keyFile != "" {
		f, err := os.Open(o.keyFile)
		if err != nil {
			log.Fatal(err)
		}
		material, err = cluster.DecodeKeyMaterial(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", o.keyFile, err)
		}
	}

	w := cluster.NewWorker(cluster.WorkerConfig{
		Seed:        o.seed,
		Material:    material,
		Workers:     o.workers,
		MaxInFlight: o.maxInFlight,
		ShedQueue:   o.shedQueue,
	})
	for name, mpath := range o.manifests {
		mf, err := os.Open(mpath)
		if err != nil {
			log.Fatal(err)
		}
		manifest, err := copse.ReadManifest(mf)
		mf.Close()
		if err != nil {
			log.Fatalf("%s: %v", mpath, err)
		}
		if len(o.shards[name]) == 0 {
			log.Fatalf("model %q has a manifest but no -shards %s=SHARD.copse", name, name)
		}
		for _, spath := range o.shards[name] {
			sf, err := os.Open(spath)
			if err != nil {
				log.Fatal(err)
			}
			c, err := copse.ReadArtifact(sf)
			sf.Close()
			if err != nil {
				log.Fatalf("%s: %v", spath, err)
			}
			if err := w.AddShard(name, manifest, c); err != nil {
				log.Fatalf("%s: %v", spath, err)
			}
			log.Printf("staged %q shard %d/%d (%s)", name, c.Shard.Index, manifest.Shards, spath)
		}
	}
	log.Printf("key fingerprint %s", w.Fingerprint())

	if o.writeKeys != "" {
		f, err := os.Create(o.writeKeys)
		if err != nil {
			log.Fatal(err)
		}
		err = cluster.EncodeKeyMaterial(f, w.Material())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatalf("%s: %v", o.writeKeys, err)
		}
		log.Printf("wrote full key material (secret included) to %s — distribute over a private channel only", o.writeKeys)
	}

	if err := serveHTTP(o.listen, w.Handler(), o.drain, w.Close); err != nil {
		log.Fatal(err)
	}
}

type gatewayOptions struct {
	listen  string
	workers string
	probe   time.Duration
	timeout time.Duration
	drain   time.Duration
	breaker int
	retries int
}

func runGateway(o gatewayOptions) {
	log.SetPrefix("copse-serve[gateway]: ")
	var urls []string
	for _, u := range strings.Split(o.workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		log.Fatal("gateway mode needs -workers URL,URL,...")
	}

	g := cluster.NewGateway(cluster.GatewayConfig{
		Workers:        urls,
		ProbeInterval:  o.probe,
		RequestTimeout: o.timeout,
		Breaker:        cluster.BreakerConfig{Threshold: o.breaker},
		Retries:        o.retries,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err := g.Refresh(ctx)
	cancel()
	if err != nil {
		// Workers may simply not be up yet; the prober keeps retrying.
		log.Printf("initial probe incomplete (will keep probing): %v", err)
	}
	for _, m := range g.Models() {
		if m.Available {
			log.Printf("routing %q: %d shard(s) across %d worker(s)", m.Name, m.Shards, len(urls))
		} else {
			log.Printf("model %q unavailable: %s", m.Name, m.Problem)
		}
	}
	g.Start()

	if err := serveHTTP(o.listen, g.Handler(), o.drain, g.Close); err != nil {
		log.Fatal(err)
	}
}

type server struct {
	svc     *copse.Service
	timeout time.Duration
	shuffle bool
}

type classifyRequest struct {
	Model   string     `json:"model"`
	Queries [][]uint64 `json:"queries"`
}

type classifyResult struct {
	Label     int    `json:"label"`
	LabelName string `json:"labelName,omitempty"`
	Votes     []int  `json:"votes"`
	// PerTree is omitted on shuffled responses: the shuffle hides tree
	// boundaries by design, only vote counts survive.
	PerTree []int `json:"perTree,omitempty"`
	// Codebook is the query's shuffled decoding table (shuffled
	// responses only): slot i of the permuted result votes for label
	// Codebook[i].
	Codebook []int `json:"codebook,omitempty"`
	// NumTrees accompanies a codebook so the client can sanity-check the
	// vote total.
	NumTrees int `json:"numTrees,omitempty"`
}

type classifyResponse struct {
	Model     string           `json:"model"`
	Shuffled  bool             `json:"shuffled,omitempty"`
	Results   []classifyResult `json:"results"`
	Passes    int              `json:"passes"`
	LatencyMS float64          `json:"latencyMS"`
}

// maxRequestBytes bounds a classify request body (~hundreds of
// thousands of queries); larger posts get a 400 instead of exhausting
// the process that holds the key set.
const maxRequestBytes = 8 << 20

func (s *server) classify(w http.ResponseWriter, r *http.Request) {
	var req classifyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
		return
	}
	if req.Model == "" || len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("need model and at least one query"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()

	capacity, err := s.svc.BatchCapacity(req.Model)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	meta, err := s.svc.Meta(req.Model)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	// Validate query shapes up front so malformed client input is a 400,
	// not a 500 from deep inside the encryption path.
	limit := uint64(1) << uint(meta.Precision)
	for i, q := range req.Queries {
		if len(q) != meta.NumFeatures {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("query %d has %d features, model %q wants %d", i, len(q), req.Model, meta.NumFeatures))
			return
		}
		for j, v := range q {
			if v >= limit {
				httpError(w, http.StatusBadRequest,
					fmt.Errorf("query %d feature %d value %d exceeds %d-bit precision", i, j, v, meta.Precision))
				return
			}
		}
	}
	start := time.Now()
	var results []*copse.Result
	var codebooks []*copse.ShuffledCodebook
	if s.shuffle {
		results, codebooks, err = s.svc.ClassifyBatchShuffled(ctx, req.Model, req.Queries)
	} else {
		results, err = s.svc.ClassifyBatch(ctx, req.Model, req.Queries)
	}
	if err != nil {
		// Failure-taxonomy mapping (DESIGN.md §15): typed serving errors
		// carry their own status so clients can tell shed load (back off
		// and retry) from timeouts and genuine faults.
		var oe *copse.OverloadError
		var de *copse.DeadlineError
		status := http.StatusInternalServerError
		switch {
		case errors.As(err, &oe):
			status = http.StatusTooManyRequests
			if oe.RetryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(int(max(1, oe.RetryAfter/time.Second))))
			}
		case errors.As(err, &de), ctx.Err() != nil:
			status = http.StatusGatewayTimeout
		}
		httpError(w, status, err)
		return
	}
	resp := classifyResponse{
		Model:     req.Model,
		Shuffled:  s.shuffle,
		Passes:    (len(req.Queries) + capacity - 1) / capacity,
		LatencyMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	for i, res := range results {
		cr := classifyResult{Label: res.Plurality(), Votes: res.Votes, PerTree: res.PerTree}
		if cr.Label < len(meta.LabelNames) {
			cr.LabelName = meta.LabelNames[cr.Label]
		}
		if codebooks != nil {
			cr.Codebook = codebooks[i].Slots
			cr.NumTrees = codebooks[i].NumTrees
		}
		resp.Results = append(resp.Results, cr)
	}
	writeJSON(w, resp)
}

type modelInfo struct {
	Name          string `json:"name"`
	Shape         string `json:"shape"`
	NumFeatures   int    `json:"numFeatures"`
	Precision     int    `json:"precision"`
	BatchCapacity int    `json:"batchCapacity"`
}

func (s *server) models(w http.ResponseWriter, _ *http.Request) {
	var out []modelInfo
	for _, name := range s.svc.Models() {
		meta, err := s.svc.Meta(name)
		if err != nil {
			continue
		}
		capacity, _ := s.svc.BatchCapacity(name)
		out = append(out, modelInfo{
			Name:          name,
			Shape:         meta.String(),
			NumFeatures:   meta.NumFeatures,
			Precision:     meta.Precision,
			BatchCapacity: capacity,
		})
	}
	writeJSON(w, out)
}

type statsResponse struct {
	Requests        int64   `json:"requests"`
	Queries         int64   `json:"queries"`
	Failures        int64   `json:"failures"`
	InFlight        int64   `json:"inFlight"`
	Queued          int64   `json:"queued"`
	MeanLatencyMS   float64 `json:"meanLatencyMS"`
	MeanQueueWaitMS float64 `json:"meanQueueWaitMS"`
	// Goroutines per pass, and the share of workers × pass time they
	// spent running ops (DESIGN.md §9).
	Workers     int     `json:"workers"`
	Utilisation float64 `json:"utilisation"`
	// Query operands the passes consumed and the bit planes per operand
	// the traffic's batch fill realized (DESIGN.md §13.4).
	QueryCiphertexts    int64   `json:"queryCiphertexts"`
	PlanesPerCiphertext float64 `json:"planesPerCiphertext"`
	// Stacked level operands the passes multiplied the branch vector with
	// and the level matrices per operand their lanes carried (§13.5).
	LevelOperands    int64   `json:"levelOperands"`
	LevelsPerOperand float64 `json:"levelsPerOperand"`
	// Resilience counters (DESIGN.md §15).
	Shed            int64 `json:"shed"`
	DeadlineRejects int64 `json:"deadlineRejects"`
	PanicsRecovered int64 `json:"panicsRecovered"`
	// Dynamic batcher counters (zero unless -batchwindow is set).
	BatcherPasses    int64   `json:"batcherPasses"`
	CoalescedQueries int64   `json:"coalescedQueries"`
	BatchFill        float64 `json:"batchFill"`
	MeanBatchWaitMS  float64 `json:"meanBatchWaitMS"`
	// Per-model latency quantiles from the fixed log-spaced histograms.
	ModelLatency map[string]modelLatency `json:"modelLatency,omitempty"`
}

type modelLatency struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50MS"`
	P95MS float64 `json:"p95MS"`
	P99MS float64 `json:"p99MS"`
}

func (s *server) stats(w http.ResponseWriter, _ *http.Request) {
	st := s.svc.Stats()
	resp := statsResponse{
		Requests:         st.Requests,
		Queries:          st.Queries,
		Failures:         st.Failures,
		InFlight:         st.InFlight,
		Queued:           st.Queued,
		MeanLatencyMS:    float64(st.MeanLatency().Microseconds()) / 1000,
		MeanQueueWaitMS:  float64(st.MeanQueueWait().Microseconds()) / 1000,
		Workers:          st.Workers,
		Utilisation:      st.Utilisation(),
		Shed:             st.Shed,
		DeadlineRejects:  st.DeadlineRejects,
		PanicsRecovered:  st.PanicsRecovered,
		BatcherPasses:    st.BatcherPasses,
		CoalescedQueries: st.CoalescedQueries,
		BatchFill:        st.BatchFill,
		MeanBatchWaitMS:  float64(st.MeanBatchWait().Microseconds()) / 1000,

		QueryCiphertexts:    st.QueryCiphertexts,
		PlanesPerCiphertext: st.PlanesPerCiphertext(),
		LevelOperands:       st.LevelOperands,
		LevelsPerOperand:    st.LevelsPerOperand(),
	}
	if len(st.ModelLatency) > 0 {
		resp.ModelLatency = make(map[string]modelLatency, len(st.ModelLatency))
		for name, ml := range st.ModelLatency {
			resp.ModelLatency[name] = modelLatency{
				Count: ml.Count,
				P50MS: float64(ml.P50.Microseconds()) / 1000,
				P95MS: float64(ml.P95.Microseconds()) / 1000,
				P99MS: float64(ml.P99.Microseconds()) / 1000,
			}
		}
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("write response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
