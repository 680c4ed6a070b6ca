package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"copse"
	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/hist"
)

// ModelUnavailableError reports a model whose shard set is not fully
// covered by healthy workers (or whose workers disagree on keys): the
// gateway cannot merge a partial vote sum, so the model is down even
// though some of its shards are reachable.
type ModelUnavailableError struct {
	Model string
	// Missing lists the shard indices with no healthy holder.
	Missing []int
	// Problem describes a configuration conflict (key-fingerprint or
	// shard-count mismatch across workers), empty if the model is
	// merely under-covered.
	Problem string
}

func (e *ModelUnavailableError) Error() string {
	if e.Problem != "" {
		return fmt.Sprintf("cluster: model %q unavailable: %s", e.Model, e.Problem)
	}
	return fmt.Sprintf("cluster: model %q unavailable: no healthy worker holds shards %v", e.Model, e.Missing)
}

// ShardError reports a shard request that failed on every holder — the
// typed mid-request degradation error (a dead worker yields this, not
// a hang).
type ShardError struct {
	Model string
	Shard int
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: model %q shard %d failed on every holder: %v", e.Model, e.Shard, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// GatewayConfig configures a gateway.
type GatewayConfig struct {
	// Workers lists the worker base URLs (http://host:port).
	Workers []string
	// ProbeInterval is the health-prober period (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 5s).
	ProbeTimeout time.Duration
	// RequestTimeout bounds one data-plane round trip (default 2min).
	RequestTimeout time.Duration
	// Breaker tunes the per-worker circuit breakers (DESIGN.md §15).
	Breaker BreakerConfig
	// Retries is the number of extra rounds a failed shard/decode call
	// makes over its holders, with exponential backoff + jitter between
	// rounds. 0 means the default (2); negative disables retries.
	Retries int
	// RetryBackoff is the base inter-round backoff (default 50ms,
	// doubling per round, capped at 2s, jittered ±50%).
	RetryBackoff time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// Gateway is the stateless routing tier: it holds public key material
// and routing state only — every secret stays on the workers — so any
// number of replicas can front one worker fleet.
type Gateway struct {
	cfg    GatewayConfig
	client *http.Client

	mu       sync.RWMutex
	workers  map[string]*workerState
	routes   map[string]*route
	backends map[string]*hebgv.Backend // public-material backends by fingerprint
	latency  map[string]*hist.Histogram
	breakers map[string]*breaker // per-worker circuit breakers, by URL

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	requests      atomic.Int64
	queries       atomic.Int64
	failures      atomic.Int64
	retries       atomic.Int64
	panics        atomic.Int64
	deadlineFails atomic.Int64
	fanoutNS      atomic.Int64
	mergeNS       atomic.Int64
	queryPlanes   atomic.Int64 // bit planes encrypted, ...
	queryCts      atomic.Int64 // ... and the ciphertexts that carried them
	levelMats     atomic.Int64 // level matrices of the forests fanned out, ...
	levelOps      atomic.Int64 // ... and the stacked operands their lanes make of them
}

// workerState is the prober's view of one worker.
type workerState struct {
	up   bool
	err  string
	info WorkerInfo
}

// route is the computed routing entry for one model.
type route struct {
	shards      int
	fingerprint string
	meta        *core.Meta
	holders     [][]string // shard index → healthy worker URLs
	problem     string
}

// missing returns the shard indices with no healthy holder.
func (r *route) missing() []int {
	var out []int
	for i, h := range r.holders {
		if len(h) == 0 {
			out = append(out, i)
		}
	}
	return out
}

func (r *route) available() bool { return r.problem == "" && len(r.missing()) == 0 }

// NewGateway returns a gateway that knows its worker fleet but has not
// probed it yet; call Refresh (or Start) before serving.
func NewGateway(cfg GatewayConfig) *Gateway {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 5 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	cfg.Breaker = cfg.Breaker.withDefaults()
	switch {
	case cfg.Retries == 0:
		cfg.Retries = 2
	case cfg.Retries < 0:
		cfg.Retries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Gateway{
		cfg:      cfg,
		client:   client,
		workers:  map[string]*workerState{},
		routes:   map[string]*route{},
		backends: map[string]*hebgv.Backend{},
		latency:  map[string]*hist.Histogram{},
		breakers: map[string]*breaker{},
		stop:     make(chan struct{}),
	}
}

// Start launches the background health prober.
func (g *Gateway) Start() {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		ticker := time.NewTicker(g.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-ticker.C:
				// No outer deadline: the info probes bound themselves
				// with ProbeTimeout, and the heavier first-contact
				// fetches (key material) with RequestTimeout.
				_ = g.Refresh(context.Background())
			}
		}
	}()
}

// Close stops the prober and drops the cached backends.
func (g *Gateway) Close() error {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.backends = map[string]*hebgv.Backend{}
	return nil
}

// Refresh probes every worker once (concurrently) and rebuilds the
// routing table. A worker that fails its probe is marked down; models
// it exclusively holds shards of become unavailable, every other model
// keeps serving.
func (g *Gateway) Refresh(ctx context.Context) error {
	type probeResult struct {
		url  string
		info WorkerInfo
		err  error
	}
	results := make(chan probeResult, len(g.cfg.Workers))
	for _, url := range g.cfg.Workers {
		go func(url string) {
			// A probe must answer fast even when the full request
			// timeout is generous: ProbeTimeout bounds it separately.
			pctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
			defer cancel()
			var info WorkerInfo
			err := g.getJSON(pctx, url+"/v1/cluster/info", &info)
			results <- probeResult{url: url, info: info, err: err}
		}(url)
	}
	states := make(map[string]*workerState, len(g.cfg.Workers))
	for range g.cfg.Workers {
		r := <-results
		ws := &workerState{up: r.err == nil, info: r.info}
		if r.err != nil {
			ws.err = r.err.Error()
		}
		states[r.url] = ws
	}

	g.mu.Lock()
	g.workers = states
	g.rebuildLocked()
	// A route's meta and problem are written after it is published (by
	// this and by concurrent refreshes), so they are read and written
	// under g.mu only; its other fields are fixed at rebuild.
	routes := make(map[string]*route, len(g.routes))
	for name, r := range g.routes {
		if r.problem == "" {
			routes[name] = r
		}
	}
	g.mu.Unlock()

	// Fetch key material and metas for fingerprints/models we have not
	// seen yet (outside the lock: these are network calls).
	var firstErr error
	for name, r := range routes {
		if err := g.ensureBackend(ctx, r); err != nil {
			g.setProblem(name, fmt.Sprintf("fetching key material: %v", err))
			if firstErr == nil {
				firstErr = err
			}
		}
		if err := g.ensureMeta(ctx, name, r); err != nil {
			g.setProblem(name, fmt.Sprintf("fetching model meta: %v", err))
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// rebuildLocked recomputes the routing table from the current worker
// states. Metas and backends already fetched are carried over by
// fingerprint/model identity.
func (g *Gateway) rebuildLocked() {
	old := g.routes
	routes := map[string]*route{}
	for url, ws := range g.workers {
		if !ws.up {
			continue
		}
		for _, m := range ws.info.Models {
			r := routes[m.Name]
			if r == nil {
				r = &route{shards: m.Shards, fingerprint: ws.info.Fingerprint, holders: make([][]string, m.Shards)}
				if prev := old[m.Name]; prev != nil {
					r.meta = prev.meta
				}
				routes[m.Name] = r
			}
			if r.shards != m.Shards {
				r.problem = fmt.Sprintf("workers disagree on shard count (%d vs %d)", r.shards, m.Shards)
				continue
			}
			if r.fingerprint != ws.info.Fingerprint {
				r.problem = "workers disagree on key fingerprint"
				continue
			}
			if m.Shard.Index >= 0 && m.Shard.Index < len(r.holders) {
				r.holders[m.Shard.Index] = append(r.holders[m.Shard.Index], url)
			}
		}
	}
	// Deterministic holder order (probe arrival order is random).
	for _, r := range routes {
		for _, h := range r.holders {
			sort.Strings(h)
		}
	}
	g.routes = routes
}

func (g *Gateway) setProblem(model, problem string) {
	g.mu.Lock()
	if r := g.routes[model]; r != nil && r.problem == "" {
		r.problem = problem
	}
	g.mu.Unlock()
}

// breakerFor returns the worker's circuit breaker, creating it on
// first use. Breakers persist across Refresh cycles: they track the
// data path's view of worker health, while the probe tracks the
// control plane's — a worker is routed to only when both agree.
func (g *Gateway) breakerFor(url string) *breaker {
	g.mu.RLock()
	b := g.breakers[url]
	g.mu.RUnlock()
	if b != nil {
		return b
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if b = g.breakers[url]; b == nil {
		b = newBreaker(g.cfg.Breaker)
		g.breakers[url] = b
	}
	return b
}

// filterAdmitted drops holders whose breaker currently rejects traffic,
// so availability and routing reflect data-path health between probes
// (this replaces the old one-way markDown).
func (g *Gateway) filterAdmitted(holders []string) []string {
	out := holders[:0]
	for _, url := range holders {
		if g.breakerFor(url).allows() {
			out = append(out, url)
		}
	}
	return out
}

// KeyScopeError is the gateway's refusal of a key frame that carries
// more than encryption needs. A gateway holding a secret key could
// decrypt every query and result it routes (the trust boundary of
// DESIGN.md §12.2), and switching keys serve no gateway op.
type KeyScopeError struct {
	Worker                string
	Secret, SwitchingKeys bool
}

func (e *KeyScopeError) Error() string {
	return fmt.Sprintf("cluster: worker %s served key material with secret key %v, switching keys %v; the gateway takes parameters and public key only",
		e.Worker, e.Secret, e.SwitchingKeys)
}

// ensureBackend builds (once per fingerprint) the encrypt/merge
// backend from a holder's public key material: parameters and public
// key, nothing else — the gateway's only homomorphic op is addition,
// which needs no key, and a frame that carries more is refused with a
// *KeyScopeError.
func (g *Gateway) ensureBackend(ctx context.Context, r *route) error {
	g.mu.RLock()
	_, ok := g.backends[r.fingerprint]
	g.mu.RUnlock()
	if ok {
		return nil
	}
	var lastErr error
	for _, holders := range r.holders {
		for _, url := range holders {
			body, err := g.getRaw(ctx, url+"/v1/cluster/keys")
			if err != nil {
				lastErr = err
				continue
			}
			mat, err := DecodeKeyMaterial(bytes.NewReader(body))
			if err != nil {
				lastErr = err
				continue
			}
			if mat.Secret != nil || mat.Keys != nil {
				lastErr = &KeyScopeError{Worker: url, Secret: mat.Secret != nil, SwitchingKeys: mat.Keys != nil}
				continue
			}
			fp, err := KeyFingerprint(mat)
			if err != nil {
				lastErr = err
				continue
			}
			if fp != r.fingerprint {
				lastErr = fmt.Errorf("cluster: worker %s served key material with fingerprint %.12s, advertised %.12s", url, fp, r.fingerprint)
				continue
			}
			backend, err := hebgv.NewFromMaterial(hebgv.Config{}, mat)
			if err != nil {
				lastErr = err
				continue
			}
			g.mu.Lock()
			if _, dup := g.backends[r.fingerprint]; !dup {
				g.backends[r.fingerprint] = backend
			}
			g.mu.Unlock()
			return nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no healthy holder to fetch keys from")
	}
	return lastErr
}

// ensureMeta fetches (once per model) the forest's global Meta.
func (g *Gateway) ensureMeta(ctx context.Context, name string, r *route) error {
	g.mu.RLock()
	have := r.meta != nil
	g.mu.RUnlock()
	if have {
		return nil
	}
	var lastErr error
	for _, holders := range r.holders {
		for _, url := range holders {
			body, err := g.getRaw(ctx, url+"/v1/cluster/meta?model="+name)
			if err != nil {
				lastErr = err
				continue
			}
			meta, err := DecodeMeta(bytes.NewReader(body))
			if err != nil {
				lastErr = err
				continue
			}
			g.mu.Lock()
			if cur := g.routes[name]; cur != nil {
				cur.meta = meta
			}
			g.mu.Unlock()
			return nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no healthy holder to fetch meta from")
	}
	return lastErr
}

// snapshot returns a consistent copy of one model's route.
func (g *Gateway) snapshot(name string) (*route, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	r, ok := g.routes[name]
	if !ok {
		return nil, &copse.UnknownModelError{Model: name}
	}
	cp := &route{shards: r.shards, fingerprint: r.fingerprint, meta: r.meta, problem: r.problem}
	cp.holders = make([][]string, len(r.holders))
	for i, h := range r.holders {
		cp.holders[i] = append([]string(nil), h...)
	}
	return cp, nil
}

// Classify fans one query batch across the model's shard holders and
// merges the encrypted per-shard vote sums. The merge is plain
// ciphertext addition: shard results occupy disjoint leaf-slot
// supports within each query's block, so the sum is bit-identical to
// the unsharded classification (DESIGN.md §12).
func (g *Gateway) Classify(ctx context.Context, model string, queries [][]uint64) ([]DecodedResult, *FanoutTrace, error) {
	r, backend, err := g.admit(model)
	if err != nil {
		return nil, nil, err
	}
	// A malformed query is the client's fault, refused before any pass:
	// no chunk of it runs, and it is not a serving failure.
	if err := r.meta.CheckFeatures(queries); err != nil {
		return nil, nil, err
	}

	trace := &FanoutTrace{Shards: r.shards}
	capacity := r.meta.BatchCapacity()
	out := make([]DecodedResult, 0, len(queries))
	for lo := 0; lo < len(queries); lo += capacity {
		hi := min(lo+capacity, len(queries))
		results, err := g.classifyChunk(ctx, model, r, backend, queries[lo:hi], trace)
		if err != nil {
			g.failures.Add(1)
			return nil, nil, err
		}
		out = append(out, results...)
		trace.Passes++
	}
	g.requests.Add(1)
	g.queries.Add(int64(len(queries)))
	return out, trace, nil
}

// admit is the one admission check: Classify serves under it and Models
// reports it. It returns the model's route, its holders filtered by the
// breakers, and the backend to encrypt and merge on; when any of them is
// missing it returns a *ModelUnavailableError beside the route.
func (g *Gateway) admit(model string) (*route, *hebgv.Backend, error) {
	r, err := g.snapshot(model)
	if err != nil {
		return nil, nil, err
	}
	// Availability reflects both the probe's view (snapshot holders) and
	// the data path's (breaker state), so a worker that died between
	// probes stops receiving traffic as soon as its breaker opens.
	for i, h := range r.holders {
		r.holders[i] = g.filterAdmitted(h)
	}
	if !r.available() {
		return r, nil, &ModelUnavailableError{Model: model, Missing: r.missing(), Problem: r.problem}
	}
	g.mu.RLock()
	backend := g.backends[r.fingerprint]
	g.mu.RUnlock()
	// A route can hold a meta carried over by model name while its
	// fingerprint has no backend yet: after Close, or while a changed
	// fleet's key material is being fetched.
	if backend == nil || r.meta == nil {
		return r, nil, &ModelUnavailableError{Model: model, Problem: "key material or meta not yet fetched"}
	}
	return r, backend, nil
}

// FanoutTrace is the per-request cluster timing breakdown.
type FanoutTrace struct {
	Shards  int
	Passes  int
	Encrypt time.Duration // query encryption + encoding on the gateway
	Fanout  time.Duration // wall time of the slowest shard round trip
	Merge   time.Duration // vote-sum additions
	Decode  time.Duration // decode round trip to a worker
}

// classifyChunk runs one capacity-bounded pass. With a caller deadline,
// each stage runs under its share of the remaining budget (stageBudget)
// and an exhausted budget fails fast with a typed *copse.DeadlineError
// before the stage spends work it cannot finish.
func (g *Gateway) classifyChunk(ctx context.Context, model string, r *route, backend *hebgv.Backend, chunk [][]uint64, trace *FanoutTrace) ([]DecodedResult, error) {
	if _, cancel, err := g.stageBudget(ctx, "encrypt"); err != nil {
		return nil, err
	} else {
		cancel() // encryption is local compute; the check alone gates it
	}
	mark := time.Now()
	q, err := core.PrepareQueryBatch(backend, r.meta, chunk, true)
	if err != nil {
		return nil, err
	}
	wcs := make([]WireCiphertext, len(q.Bits))
	for i, op := range q.Bits {
		raw, depth, err := backend.ExportCiphertext(op.Ct)
		if err != nil {
			return nil, err
		}
		wcs[i] = WireCiphertext{Ct: raw, Depth: depth}
	}
	// The query planes and, below, the merge's ciphertexts are this
	// request's own: back to the backend's pool once the frame holds them.
	var queryFrame bytes.Buffer
	err = EncodeCiphertexts(&queryFrame, wcs)
	for _, op := range q.Bits {
		he.Release(op.Ct)
	}
	if err != nil {
		return nil, err
	}
	trace.Encrypt += time.Since(mark)
	g.queryPlanes.Add(int64(r.meta.Precision))
	g.queryCts.Add(int64(len(wcs)))
	_, _, levelOps := r.meta.LevelLayout(q.PlanesPerCiphertext)
	g.levelMats.Add(int64(r.meta.D))
	g.levelOps.Add(int64(levelOps))

	// Fan out: one request per shard, concurrently; each shard fails over
	// across its holders (holderCall). A panic in a shard goroutine fails
	// the request, not the process.
	fctx, fcancel, err := g.stageBudget(ctx, "fanout")
	if err != nil {
		return nil, err
	}
	mark = time.Now()
	shardCts := make([]WireCiphertext, r.shards)
	errs := make([]error, r.shards)
	var wg sync.WaitGroup
	for shard := 0; shard < r.shards; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					g.panics.Add(1)
					errs[shard] = &copse.InternalError{Op: "shard fan-out", Value: rec, Stack: debug.Stack()}
				}
			}()
			shardCts[shard], errs[shard] = g.classifyShard(fctx, model, shard, r.holders[shard], queryFrame.Bytes(), len(chunk))
		}(shard)
	}
	wg.Wait()
	fcancel()
	for shard, err := range errs {
		if err != nil {
			var de *copse.DeadlineError
			var ie *copse.InternalError
			if errors.As(err, &de) || errors.As(err, &ie) {
				return nil, err
			}
			return nil, &ShardError{Model: model, Shard: shard, Err: err}
		}
	}
	fanout := time.Since(mark)
	trace.Fanout += fanout
	g.fanoutNS.Add(fanout.Nanoseconds())

	// Merge: per-shard vote sums have disjoint slot supports — plain
	// additions at the (low) result level, no keys involved.
	if _, cancel, err := g.stageBudget(ctx, "merge"); err != nil {
		return nil, err
	} else {
		cancel() // the merge is local adds; the check alone gates it
	}
	mark = time.Now()
	mergedFrame, err := mergeFrame(backend, shardCts)
	if err != nil {
		return nil, err
	}
	merge := time.Since(mark)
	trace.Merge += merge
	g.mergeNS.Add(merge.Nanoseconds())

	// Decode on any healthy holder (all hold the same secret key).
	dctx, dcancel, err := g.stageBudget(ctx, "decode")
	if err != nil {
		return nil, err
	}
	defer dcancel()
	mark = time.Now()
	results, err := g.decode(dctx, model, r, mergedFrame.Bytes(), len(chunk))
	decode := time.Since(mark)
	trace.Decode += decode
	if err != nil {
		return nil, err
	}
	// trace sums the request's passes; the histogram takes this one's.
	g.observeLatency(model, fanout+merge+decode)
	return results, nil
}

// mergeFrame adds the shard results up and encodes the sum. Every
// ciphertext it imports or makes goes back to the backend's pool once the
// frame holds the sum.
func mergeFrame(backend *hebgv.Backend, shardCts []WireCiphertext) (*bytes.Buffer, error) {
	var made []he.Ciphertext
	defer func() {
		for _, ct := range made {
			he.Release(ct)
		}
	}()
	var sum he.Ciphertext
	for _, wc := range shardCts {
		shard, err := backend.ImportCiphertext(wc.Ct, wc.Depth)
		if err != nil {
			return nil, fmt.Errorf("cluster: merging shard results: %w", err)
		}
		made = append(made, shard)
		if sum == nil {
			sum = shard
			continue
		}
		if sum, err = backend.Add(sum, shard); err != nil {
			return nil, fmt.Errorf("cluster: merging shard results: %w", err)
		}
		made = append(made, sum)
	}
	raw, depth, err := backend.ExportCiphertext(sum)
	if err != nil {
		return nil, err
	}
	var frame bytes.Buffer
	if err := EncodeCiphertexts(&frame, []WireCiphertext{{Ct: raw, Depth: depth}}); err != nil {
		return nil, err
	}
	return &frame, nil
}

// classifyShard posts one shard request through holderCall: a holder due
// a half-open trial is tried first, failures fail over immediately, and
// exhausted rounds back off and retry.
func (g *Gateway) classifyShard(ctx context.Context, model string, shard int, holders []string, frame []byte, batch int) (WireCiphertext, error) {
	return holderCall(g, ctx, holders, func(ctx context.Context, url string) (WireCiphertext, error) {
		target := fmt.Sprintf("%s/v1/cluster/classify?model=%s&shard=%d&batch=%d", url, model, shard, batch)
		body, err := g.postRaw(ctx, target, frame)
		if err != nil {
			return WireCiphertext{}, err
		}
		cts, err := DecodeCiphertexts(bytes.NewReader(body))
		if err == nil && len(cts) != 1 {
			err = fmt.Errorf("cluster: worker returned %d ciphertexts, want 1", len(cts))
		}
		if err != nil {
			return WireCiphertext{}, err
		}
		return cts[0], nil
	})
}

// decode posts the merged ciphertext to any holder of the model,
// retrying alternates through holderCall — a single
// holder failure after a successful merge must not waste the whole
// fan-out. If every breaker refuses admission, it bypasses them for
// one sequential last-resort pass: the merge is already paid for, so
// one more attempt per holder is cheap against redoing the pass.
func (g *Gateway) decode(ctx context.Context, model string, r *route, frame []byte, count int) ([]DecodedResult, error) {
	var urls []string
	seen := map[string]bool{}
	for _, holders := range r.holders {
		for _, url := range holders {
			if !seen[url] {
				seen[url] = true
				urls = append(urls, url)
			}
		}
	}
	call := func(ctx context.Context, url string) ([]DecodedResult, error) {
		target := fmt.Sprintf("%s/v1/cluster/decode?model=%s&count=%d", url, model, count)
		body, err := g.postRaw(ctx, target, frame)
		if err != nil {
			return nil, err
		}
		var results []DecodedResult
		if err := json.Unmarshal(body, &results); err != nil {
			return nil, err
		}
		return results, nil
	}
	results, err := holderCall(g, ctx, urls, call)
	if errors.Is(err, errAllBreakersOpen) {
		for _, url := range urls {
			if results, lerr := call(ctx, url); lerr == nil {
				return results, nil
			} else {
				err = lerr
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: decoding merged result: %w", err)
	}
	return results, nil
}

func (g *Gateway) observeLatency(model string, d time.Duration) {
	g.mu.Lock()
	h := g.latency[model]
	if h == nil {
		h = hist.New()
		g.latency[model] = h
	}
	g.mu.Unlock()
	h.Observe(d)
}

// HTTP plumbing.

func (g *Gateway) getJSON(ctx context.Context, url string, v any) error {
	body, err := g.getRaw(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func (g *Gateway) getRaw(ctx context.Context, url string) ([]byte, error) {
	return g.roundTrip(ctx, http.MethodGet, url, nil)
}

func (g *Gateway) postRaw(ctx context.Context, url string, body []byte) ([]byte, error) {
	return g.roundTrip(ctx, http.MethodPost, url, body)
}

func (g *Gateway) roundTrip(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxDataPlaneBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(data))
		var je struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &je) == nil && je.Error != "" {
			msg = je.Error
		}
		// Typed, so breaker accounting can tell worker faults (5xx)
		// from request faults (4xx).
		return nil, &httpStatusError{
			Status:     resp.StatusCode,
			StatusLine: resp.Status,
			Msg:        msg,
			RetryAfter: resp.Header.Get("Retry-After"),
		}
	}
	return data, nil
}

// HTTP surface.

// GatewayModel is one /v1/models entry: the shard-aware availability
// view of a served forest.
type GatewayModel struct {
	Name          string     `json:"name"`
	Shards        int        `json:"shards"`
	Available     bool       `json:"available"`
	MissingShards []int      `json:"missingShards,omitempty"`
	Problem       string     `json:"problem,omitempty"`
	Workers       [][]string `json:"workers"`
	NumFeatures   int        `json:"numFeatures,omitempty"`
	Precision     int        `json:"precision,omitempty"`
	BatchCapacity int        `json:"batchCapacity,omitempty"`
}

// Models returns the shard-aware model inventory. Availability is the
// serving truth: Classify's admission check (admit), which reflects the
// probe view, the per-worker breaker state and the key material fetched.
func (g *Gateway) Models() []GatewayModel {
	g.mu.RLock()
	names := make([]string, 0, len(g.routes))
	for name := range g.routes {
		names = append(names, name)
	}
	g.mu.RUnlock()
	out := make([]GatewayModel, 0, len(names))
	for _, name := range names {
		// admit outside the read lock: filterAdmitted takes the gateway
		// lock itself when it must create a breaker.
		r, _, err := g.admit(name)
		if r == nil {
			continue
		}
		m := GatewayModel{
			Name:          name,
			Shards:        r.shards,
			Available:     err == nil,
			MissingShards: r.missing(),
			Problem:       r.problem,
			Workers:       r.holders,
		}
		var unavailable *ModelUnavailableError
		if errors.As(err, &unavailable) {
			m.Problem = unavailable.Problem
		}
		if r.meta != nil {
			m.NumFeatures = r.meta.NumFeatures
			m.Precision = r.meta.Precision
			m.BatchCapacity = r.meta.BatchCapacity()
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Handler returns the gateway's public HTTP surface.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("POST /v1/classify", g.handleClassify)
	mux.HandleFunc("GET /v1/models", func(rw http.ResponseWriter, _ *http.Request) {
		WriteJSON(rw, g.Models())
	})
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	return mux
}

func (g *Gateway) handleClassify(rw http.ResponseWriter, r *http.Request) {
	req, ok := ReadClassifyRequest(rw, r)
	if !ok {
		return
	}
	start := time.Now()
	results, trace, err := g.Classify(r.Context(), req.Model, req.Queries)
	if err != nil {
		WriteError(rw, err)
		return
	}
	WriteJSON(rw, ClassifyResponse{
		Model:     req.Model,
		Results:   results,
		Shards:    trace.Shards,
		Passes:    trace.Passes,
		LatencyMS: hist.Millis(time.Since(start)),
		FanoutMS:  hist.Millis(trace.Fanout),
		MergeMS:   hist.Millis(trace.Merge),
	})
}

type gatewayWorkerJSON struct {
	URL     string           `json:"url"`
	Up      bool             `json:"up"`
	Error   string           `json:"error,omitempty"`
	Breaker *BreakerSnapshot `json:"breaker,omitempty"`
}

type gatewayStatsJSON struct {
	Requests         int64                         `json:"requests"`
	Queries          int64                         `json:"queries"`
	Failures         int64                         `json:"failures"`
	Retries          int64                         `json:"retries"`
	PanicsRecovered  int64                         `json:"panicsRecovered"`
	DeadlineFailures int64                         `json:"deadlineFailures"`
	FanoutMS         float64                       `json:"fanoutMS"`
	MergeMS          float64                       `json:"mergeMS"`
	Workers          []gatewayWorkerJSON           `json:"workers"`
	ModelLatency     map[string]copse.LatencyStats `json:"modelLatency,omitempty"`

	// Query ciphertexts encrypted and fanned out, and the bit planes per
	// ciphertext the requests' batch fill realized (DESIGN.md §13.4).
	QueryCiphertexts    int64   `json:"queryCiphertexts"`
	PlanesPerCiphertext float64 `json:"planesPerCiphertext"`
	// Stacked level operands of the forests fanned out and the level
	// matrices per operand, by the forests' global layout (§13.5); what
	// each shard stages for its own depth is in its worker's stats.
	LevelOperands    int64   `json:"levelOperands"`
	LevelsPerOperand float64 `json:"levelsPerOperand"`
}

func (g *Gateway) handleStats(rw http.ResponseWriter, _ *http.Request) {
	st := gatewayStatsJSON{
		Requests:         g.requests.Load(),
		Queries:          g.queries.Load(),
		Failures:         g.failures.Load(),
		Retries:          g.retries.Load(),
		PanicsRecovered:  g.panics.Load(),
		DeadlineFailures: g.deadlineFails.Load(),
		FanoutMS:         hist.Millis(time.Duration(g.fanoutNS.Load())),
		MergeMS:          hist.Millis(time.Duration(g.mergeNS.Load())),
		QueryCiphertexts: g.queryCts.Load(),
	}
	if st.QueryCiphertexts > 0 {
		st.PlanesPerCiphertext = float64(g.queryPlanes.Load()) / float64(st.QueryCiphertexts)
	}
	if st.LevelOperands = g.levelOps.Load(); st.LevelOperands > 0 {
		st.LevelsPerOperand = float64(g.levelMats.Load()) / float64(st.LevelOperands)
	}
	g.mu.RLock()
	for url, ws := range g.workers {
		wj := gatewayWorkerJSON{URL: url, Up: ws.up, Error: ws.err}
		if b := g.breakers[url]; b != nil {
			snap := b.snapshot()
			wj.Breaker = &snap
		}
		st.Workers = append(st.Workers, wj)
	}
	if len(g.latency) > 0 {
		st.ModelLatency = make(map[string]copse.LatencyStats, len(g.latency))
		for name, h := range g.latency {
			st.ModelLatency[name] = h.Snapshot().Summary()
		}
	}
	g.mu.RUnlock()
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].URL < st.Workers[j].URL })
	WriteJSON(rw, st)
}
