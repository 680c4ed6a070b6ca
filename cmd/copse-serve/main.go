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
// On bgv the ring is the one the artifacts' common slot count picks,
// and the chain the one the first-registered model's level plan sizes.
//
// With -batchwindow, concurrent requests for the same model coalesce
// into shared slot-packed homomorphic passes (the dynamic batcher): a
// pass fires once the model's batch capacity is pending, or when its
// first request has waited the window, and answers every rider's
// queries.
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
// Failed requests answer with the status of their typed error
// (cluster.WriteError): 400 for a malformed query, 404 for an unknown
// model, 429 + Retry-After for shed load, 504 for a blown deadline.
//
// Every mode shuts down gracefully on SIGINT/SIGTERM: the listener
// closes, in-flight requests drain (bounded by -drain), then the
// service and its key material are released.
package main

import (
	"context"
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
	timeout := flag.Duration("timeout", 2*time.Minute, "deadline of every request, in every mode: a classification that cannot finish in it answers 504 (a gateway splits it over its stages and the worker hops, a worker's service fails fast on it)")
	seed := flag.Uint64("seed", 0, "deterministic keys/encryption when non-zero (tests only — except -worker mode, where a shared seed is how the fleet derives one key set; with -shuffle it also makes every shuffle permutation predictable to anyone who knows the seed, voiding the leakage hardening)")
	shuffle := flag.Bool("shuffle", false, "shuffle results (leakage hardening, §7.2.2): responses carry per-query codebooks and vote counts instead of per-tree labels; models need CompileOptions.PlanShuffle")
	batchWindow := flag.Duration("batchwindow", 0, "dynamic batching linger: concurrent requests for the same model coalesce into shared slot-packed passes, which fire at the model's batch capacity or once the first rider has waited this long (0 = off)")
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

	// The options a worker's service shares with a single-node one.
	opts := []copse.Option{
		copse.WithWorkers(workers),
		copse.WithMaxInFlight(*maxInFlight),
		copse.WithShedQueue(*shedQueue),
	}
	if *workerMode {
		runWorker(workerOptions{
			listen:    *listen,
			manifests: manifests,
			shards:    shardPaths,
			seed:      *seed,
			keyFile:   *keyFile,
			writeKeys: *writeKeys,
			service:   opts,
			timeout:   *timeout,
			drain:     *drain,
		})
		return
	}

	if len(models) == 0 {
		log.Fatal("need at least one -model NAME=ARTIFACT")
	}
	kind, err := copse.ParseBackend(*backendArg)
	if err != nil {
		log.Fatal(err)
	}
	scenario, err := copse.ParseScenario(*scenarioArg)
	if err != nil {
		log.Fatal(err)
	}
	opts = append(opts, copse.WithSeed(*seed), copse.WithShuffle(*shuffle), copse.WithBatchWindow(*batchWindow),
		copse.WithBackend(kind), copse.WithScenario(scenario))

	// Load every artifact first: the register order (and so the shared
	// key set's chain) follows from all of them.
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
		log.Printf("dynamic batching on: linger %v, passes fire at batch capacity", *batchWindow)
	}

	srv := &server{svc: svc, shuffle: *shuffle}
	if err := serveHTTP(*listen, srv.handler(), *timeout, *drain, svc.Close); err != nil {
		log.Fatal(err)
	}
}

// registerOrder sorts names into register order: the longest chain the
// served scenario needs first — the first model sizes the shared backend's
// modulus chain (copse.ChainLevels), and Register refuses a model that
// needs a longer chain than the backend has. Ties (and the non-BGV
// backends) stay name-sorted for determinism.
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

// serveHTTP runs handler on addr, every request under the timeout
// deadline, until the process receives SIGINT or SIGTERM, then drains
// in-flight requests (bounded by drain) and calls shutdown to release the
// service and its key material. A listener error (port in use, etc.) is
// returned immediately.
func serveHTTP(addr string, handler http.Handler, timeout, drain time.Duration, shutdown func() error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{Addr: addr, Handler: withDeadline(handler, timeout)}
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

// withDeadline puts every request h serves under a deadline timeout from
// its arrival: the one -timeout of all three modes. The single-node
// service and a worker's fail fast on it, and a gateway splits it over its
// stages and worker hops; a request that runs out answers 504.
func withDeadline(h http.Handler, timeout time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

type workerOptions struct {
	listen    string
	manifests modelFlags
	shards    shardListFlags
	seed      uint64
	keyFile   string
	writeKeys string
	service   []copse.Option
	timeout   time.Duration
	drain     time.Duration
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

	w := cluster.NewWorker(cluster.WorkerConfig{Seed: o.seed, Material: material, Service: o.service})
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

	if err := serveHTTP(o.listen, w.Handler(), o.timeout, o.drain, w.Close); err != nil {
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
		Workers:       urls,
		ProbeInterval: o.probe,
		Breaker:       cluster.BreakerConfig{Threshold: o.breaker},
		Retries:       o.retries,
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

	if err := serveHTTP(o.listen, g.Handler(), o.timeout, o.drain, g.Close); err != nil {
		log.Fatal(err)
	}
}

type server struct {
	svc     *copse.Service
	shuffle bool
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

// handler is the single-node HTTP surface.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", s.classify)
	mux.HandleFunc("GET /v1/models", s.models)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		cluster.WriteJSON(w, s.svc.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *server) classify(w http.ResponseWriter, r *http.Request) {
	req, ok := cluster.ReadClassifyRequest(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	meta, err := s.svc.Meta(req.Model)
	if err != nil {
		cluster.WriteError(w, err)
		return
	}
	capacity := meta.BatchCapacity()
	start := time.Now()
	var results []*copse.Result
	var codebooks []*copse.ShuffledCodebook
	if s.shuffle {
		results, codebooks, err = s.svc.ClassifyBatchShuffled(ctx, req.Model, req.Queries)
	} else {
		results, err = s.svc.ClassifyBatch(ctx, req.Model, req.Queries)
	}
	if err != nil {
		cluster.WriteError(w, err)
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
	cluster.WriteJSON(w, resp)
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
		out = append(out, modelInfo{
			Name:          name,
			Shape:         meta.String(),
			NumFeatures:   meta.NumFeatures,
			Precision:     meta.Precision,
			BatchCapacity: meta.BatchCapacity(),
		})
	}
	cluster.WriteJSON(w, out)
}
