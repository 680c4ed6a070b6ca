// Package cluster implements sharded multi-node serving (DESIGN.md
// §12): worker nodes own (model shard, key set) pairs and expose the
// classification pass over a versioned wire protocol; a stateless
// gateway routes queries by model name and key fingerprint, fans each
// batch to the shard-holding workers, and merges the encrypted
// per-shard vote sums with plain ciphertext additions.
//
// The control plane is HTTP/JSON (health, shard inventory, stats); the
// data plane moves ciphertexts as length-prefixed binary frames
// (wire.go). Workers hold the secret key; the gateway holds only
// public material and never sees a plaintext result.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"copse"
	"copse/internal/bgv"
	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/he/hebgv"
)

// ParamsForSlots maps a packing width to the BGV preset providing it,
// sized to the given chain length — the lookup a worker performs when
// deriving its key set from a shard manifest.
func ParamsForSlots(slots, levels int) (bgv.Params, error) {
	switch slots {
	case 1024:
		return bgv.TestParams(levels), nil
	case 2048:
		return bgv.DemoParams(levels), nil
	case 16384:
		return bgv.Secure128Params(levels), nil
	}
	return bgv.Params{}, fmt.Errorf("cluster: no BGV preset with %d slots (want 1024, 2048 or 16384)", slots)
}

// WorkerConfig configures a worker node.
type WorkerConfig struct {
	// Seed derives the key set deterministically from the shard
	// manifest's key contract. Every worker of one cluster must use the
	// same seed (or the same Material) so all nodes hold identical
	// keys; a query encrypted against one worker's public key then
	// decrypts on any of them.
	Seed uint64
	// Material, when non-nil, supplies the key set directly (decoded
	// from a key-material wire frame) instead of deriving it from
	// Seed. It must carry the secret key and evaluation keys.
	Material *hebgv.Material
	// Workers is the number of goroutines each pass runs its ops on
	// (copse.WithWorkers): 0 = GOMAXPROCS, 1 = sequential.
	Workers int
	// MaxInFlight caps concurrent classification passes (0 =
	// unlimited).
	MaxInFlight int
	// ShedQueue bounds how many passes may queue for an in-flight slot
	// before the worker sheds load with a typed 429 + Retry-After
	// (copse.WithShedQueue); 0 queues without bound.
	ShedQueue int
}

// Worker is one cluster node: a copse.Service staging shard artifacts
// onto a manifest-derived backend, plus the HTTP control/data planes.
type Worker struct {
	cfg WorkerConfig

	mu          sync.RWMutex
	backend     *hebgv.Backend
	svc         *copse.Service
	fingerprint string
	forests     map[string]*workerForest
}

// workerForest is one forest family the worker holds shards of.
type workerForest struct {
	manifest *core.ShardManifest
	shards   map[int]string // shard index → service registry name
}

// NewWorker returns an empty worker; AddShard stages models onto it.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg, forests: map[string]*workerForest{}}
}

// AddShard stages one shard of a forest under a model name. The first
// shard fixes the worker's backend: built from cfg.Material when set,
// otherwise derived from the manifest's key contract (chain length,
// rotation-step union, step levels) and cfg.Seed — identical across
// every worker sharing the seed, because key generation is
// deterministic in the contract. Later shards (of this or other
// forests) share the backend; their rotation steps must be covered by
// the first manifest's union or fall back to composed power-of-two
// hops.
func (w *Worker) AddShard(name string, manifest *core.ShardManifest, shard *core.Compiled) error {
	if name == "" {
		return fmt.Errorf("cluster: empty model name")
	}
	if manifest == nil || shard == nil {
		return fmt.Errorf("cluster: AddShard needs a manifest and a shard artifact")
	}
	if shard.Shard == nil {
		return fmt.Errorf("cluster: model %q artifact is not a shard (compile with ShardForest)", name)
	}
	info := *shard.Shard
	if info.Count != manifest.Shards || info.Index < 0 || info.Index >= manifest.Shards {
		return fmt.Errorf("cluster: model %q shard %d/%d does not match manifest with %d shards",
			name, info.Index, info.Count, manifest.Shards)
	}
	if shard.Meta.Slots != manifest.Meta.Slots {
		return fmt.Errorf("cluster: model %q shard staged for %d slots, manifest says %d",
			name, shard.Meta.Slots, manifest.Meta.Slots)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.backend == nil {
		if err := w.initLocked(manifest); err != nil {
			return err
		}
	}
	wf := w.forests[name]
	if wf == nil {
		wf = &workerForest{manifest: manifest, shards: map[int]string{}}
		w.forests[name] = wf
	} else if wf.manifest.Shards != manifest.Shards {
		return fmt.Errorf("cluster: model %q already staged with %d shards, manifest says %d",
			name, wf.manifest.Shards, manifest.Shards)
	}
	if _, dup := wf.shards[info.Index]; dup {
		return fmt.Errorf("cluster: model %q shard %d already staged", name, info.Index)
	}
	reg := fmt.Sprintf("%s/%d", name, info.Index)
	if err := w.svc.Register(reg, shard); err != nil {
		return err
	}
	wf.shards[info.Index] = reg
	return nil
}

// initLocked builds the backend and service from the first manifest.
func (w *Worker) initLocked(manifest *core.ShardManifest) error {
	var backend *hebgv.Backend
	var err error
	if m := w.cfg.Material; m != nil {
		if m.Secret == nil || m.Keys == nil {
			return fmt.Errorf("cluster: worker key material needs the secret key and evaluation keys")
		}
		backend, err = hebgv.NewFromMaterial(hebgv.Config{Seed: w.cfg.Seed}, m)
	} else {
		if w.cfg.Seed == 0 {
			return fmt.Errorf("cluster: worker needs a non-zero shared seed (or explicit key material) so every node derives the same key set")
		}
		var params bgv.Params
		params, err = ParamsForSlots(manifest.Meta.Slots, manifest.ChainLevels)
		if err != nil {
			return err
		}
		backend, err = hebgv.New(hebgv.Config{
			Params:             params,
			RotationSteps:      manifest.RotationSteps,
			RotationStepLevels: manifest.RotationStepLevels,
			Seed:               w.cfg.Seed,
		})
	}
	if err != nil {
		return err
	}
	fp, err := KeyFingerprint(backend.Material())
	if err != nil {
		return err
	}
	w.backend = backend
	w.fingerprint = fp
	// Shard artifacts carry plaintext model operands (the server-model
	// configuration): the privacy boundary of the cluster is the query
	// and result ciphertexts, and plaintext models keep the per-shard
	// depth at CtDepthPlainModel — matching manifest.ChainLevels.
	w.svc = copse.NewService(
		copse.WithExternalBackend(backend),
		copse.WithScenario(copse.ScenarioServerModel),
		copse.WithWorkers(w.cfg.Workers),
		copse.WithMaxInFlight(w.cfg.MaxInFlight),
		copse.WithShedQueue(w.cfg.ShedQueue),
	)
	return nil
}

// Fingerprint returns the worker's key-set fingerprint (empty before
// the first AddShard).
func (w *Worker) Fingerprint() string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.fingerprint
}

// Material returns the worker's full key material (secret key
// included) for distribution to sibling workers, or nil before the
// first AddShard. Handle with the same care as the secret key itself.
func (w *Worker) Material() *hebgv.Material {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.backend == nil {
		return nil
	}
	return w.backend.Material()
}

// Service exposes the underlying serving layer (stats, diagnostics).
func (w *Worker) Service() *copse.Service {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.svc
}

// Close releases the backend and service.
func (w *Worker) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.svc != nil {
		return w.svc.Close()
	}
	return nil
}

// WorkerInfo is the control-plane inventory of one worker.
type WorkerInfo struct {
	Fingerprint string        `json:"fingerprint"`
	Slots       int           `json:"slots"`
	Models      []WorkerShard `json:"models"`
}

// WorkerShard describes one staged shard.
type WorkerShard struct {
	Name          string         `json:"name"`
	Shard         core.ShardInfo `json:"shard"`
	Shards        int            `json:"shards"`
	NumFeatures   int            `json:"numFeatures"`
	Precision     int            `json:"precision"`
	BatchCapacity int            `json:"batchCapacity"`
}

// DecodedResult is one decrypted classification, as the worker decode
// endpoint reports it to the gateway. LeafBits is the raw N-hot leaf
// bitvector — the gateway's bit-exactness checks compare it against
// single-node serving.
type DecodedResult struct {
	Label     int      `json:"label"`
	LabelName string   `json:"labelName,omitempty"`
	Votes     []int    `json:"votes"`
	PerTree   []int    `json:"perTree"`
	LeafBits  []uint64 `json:"leafBits"`
}

// maxDataPlaneBytes bounds a data-plane request body; a query batch is
// Precision ciphertexts, far below this.
const maxDataPlaneBytes = 256 << 20

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("GET /v1/cluster/info", w.handleInfo)
	mux.HandleFunc("GET /v1/cluster/keys", w.handleKeys)
	mux.HandleFunc("GET /v1/cluster/meta", w.handleMeta)
	mux.HandleFunc("POST /v1/cluster/classify", w.handleClassify)
	mux.HandleFunc("POST /v1/cluster/decode", w.handleDecode)
	mux.HandleFunc("GET /v1/stats", w.handleStats)
	return mux
}

func (w *Worker) handleInfo(rw http.ResponseWriter, _ *http.Request) {
	w.mu.RLock()
	info := WorkerInfo{Fingerprint: w.fingerprint}
	if w.backend != nil {
		info.Slots = w.backend.Slots()
	}
	for name, wf := range w.forests {
		gm := &wf.manifest.Meta
		for idx := range wf.shards {
			info.Models = append(info.Models, WorkerShard{
				Name:          name,
				Shard:         wf.manifest.Ranges[idx],
				Shards:        wf.manifest.Shards,
				NumFeatures:   gm.NumFeatures,
				Precision:     gm.Precision,
				BatchCapacity: gm.BatchCapacity(),
			})
		}
	}
	w.mu.RUnlock()
	sort.Slice(info.Models, func(i, j int) bool {
		if info.Models[i].Name != info.Models[j].Name {
			return info.Models[i].Name < info.Models[j].Name
		}
		return info.Models[i].Shard.Index < info.Models[j].Shard.Index
	})
	writeJSON(rw, info)
}

func (w *Worker) handleKeys(rw http.ResponseWriter, _ *http.Request) {
	w.mu.RLock()
	backend := w.backend
	w.mu.RUnlock()
	if backend == nil {
		httpError(rw, http.StatusServiceUnavailable, fmt.Errorf("cluster: no key set yet"))
		return
	}
	// Buffer the frame: once streaming to rw starts, an encode error
	// could no longer become a clean HTTP error.
	var buf bytes.Buffer
	if err := EncodeKeyMaterial(&buf, backend.PublicMaterial()); err != nil {
		httpError(rw, http.StatusInternalServerError, err)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	_, _ = rw.Write(buf.Bytes())
}

func (w *Worker) handleMeta(rw http.ResponseWriter, r *http.Request) {
	wf, err := w.forest(r.URL.Query().Get("model"))
	if err != nil {
		httpError(rw, http.StatusNotFound, err)
		return
	}
	var buf bytes.Buffer
	if err := EncodeMeta(&buf, &wf.manifest.Meta); err != nil {
		httpError(rw, http.StatusInternalServerError, err)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	_, _ = rw.Write(buf.Bytes())
}

func (w *Worker) forest(name string) (*workerForest, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	wf := w.forests[name]
	if wf == nil {
		return nil, fmt.Errorf("cluster: model %q not staged on this worker", name)
	}
	return wf, nil
}

// handleClassify is the data plane: the query's bit-plane ciphertexts
// in — as many as the batch count's plane packing makes them — and one
// shard-result ciphertext out.
func (w *Worker) handleClassify(rw http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	name := qv.Get("model")
	shardIdx, err := strconv.Atoi(qv.Get("shard"))
	if err != nil {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("cluster: bad shard index: %w", err))
		return
	}
	batch, err := strconv.Atoi(qv.Get("batch"))
	if err != nil || batch < 1 {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("cluster: bad batch count %q", qv.Get("batch")))
		return
	}
	wf, err := w.forest(name)
	if err != nil {
		httpError(rw, http.StatusNotFound, err)
		return
	}
	reg, ok := wf.shards[shardIdx]
	if !ok {
		httpError(rw, http.StatusNotFound, fmt.Errorf("cluster: shard %d of model %q not on this worker", shardIdx, name))
		return
	}
	gm := &wf.manifest.Meta
	if cap := gm.BatchCapacity(); batch > cap {
		httpError(rw, http.StatusBadRequest, &core.BatchCapacityError{Index: batch, Capacity: cap})
		return
	}
	// The batch count fixes the plane packing, and the packing the number
	// of ciphertexts; a frame that announces any other count is refused
	// before a polynomial of it is allocated.
	g := gm.PlanesPerCiphertext(batch)
	cts, err := decodeCiphertexts(http.MaxBytesReader(rw, r.Body, maxDataPlaneBytes), func(n int) error {
		if want := gm.QueryCiphertexts(g); n != want {
			return &core.QueryLayoutError{Planes: n, PlanesPerCiphertext: g, Block: gm.BatchBlock(), Want: want}
		}
		return nil
	})
	if err != nil {
		httpError(rw, http.StatusBadRequest, err)
		return
	}
	w.mu.RLock()
	backend, svc := w.backend, w.svc
	w.mu.RUnlock()
	bits := make([]he.Operand, len(cts))
	for i, wc := range cts {
		bits[i] = he.Cipher(backend.ImportCiphertext(wc.Ct, wc.Depth))
	}
	q := &copse.Query{
		Bits:        bits,
		Batch:       batch,
		NumFeatures: gm.NumFeatures,
		K:           gm.K,
		QPad:        gm.QPad,
		Block:       gm.BatchBlock(),

		PlanesPerCiphertext: g,
	}
	enc, _, err := svc.Classify(r.Context(), reg, q)
	if err != nil {
		classifyError(rw, err)
		return
	}
	op, _, err := enc.Operand()
	if err == nil && !op.IsCipher() {
		err = fmt.Errorf("cluster: shard result is not a ciphertext")
	}
	if err != nil {
		httpError(rw, http.StatusInternalServerError, err)
		return
	}
	raw, depth, err := backend.ExportCiphertext(op.Ct)
	if err != nil {
		httpError(rw, http.StatusInternalServerError, err)
		return
	}
	var buf bytes.Buffer
	if err := EncodeCiphertexts(&buf, []WireCiphertext{{Ct: raw, Depth: depth}}); err != nil {
		httpError(rw, http.StatusInternalServerError, err)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	_, _ = rw.Write(buf.Bytes())
}

// handleDecode decrypts a merged result ciphertext and decodes it
// against the forest's global meta — the only place cluster results
// become plaintext, on a node holding the secret key.
func (w *Worker) handleDecode(rw http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	wf, err := w.forest(qv.Get("model"))
	if err != nil {
		httpError(rw, http.StatusNotFound, err)
		return
	}
	count, err := strconv.Atoi(qv.Get("count"))
	if err != nil || count < 1 {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("cluster: bad result count %q", qv.Get("count")))
		return
	}
	cts, err := DecodeCiphertexts(http.MaxBytesReader(rw, r.Body, maxDataPlaneBytes))
	if err != nil {
		httpError(rw, http.StatusBadRequest, err)
		return
	}
	if len(cts) != 1 {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("cluster: decode wants 1 merged ciphertext, got %d", len(cts)))
		return
	}
	w.mu.RLock()
	backend := w.backend
	w.mu.RUnlock()
	slots, err := backend.Decrypt(backend.ImportCiphertext(cts[0].Ct, cts[0].Depth))
	if err != nil {
		httpError(rw, http.StatusInternalServerError, err)
		return
	}
	gm := &wf.manifest.Meta
	results, err := core.DecodeResultBatch(gm, slots, count, gm.QueryCapacity(gm.PlanesPerCiphertext(count)))
	if err != nil {
		httpError(rw, http.StatusInternalServerError, err)
		return
	}
	out := make([]DecodedResult, len(results))
	for i, res := range results {
		out[i] = DecodedResult{
			Label:    res.Plurality(),
			Votes:    res.Votes,
			PerTree:  res.PerTree,
			LeafBits: res.LeafBits,
		}
		if out[i].Label < len(gm.LabelNames) {
			out[i].LabelName = gm.LabelNames[out[i].Label]
		}
	}
	writeJSON(rw, out)
}

func (w *Worker) handleStats(rw http.ResponseWriter, _ *http.Request) {
	w.mu.RLock()
	svc := w.svc
	w.mu.RUnlock()
	if svc == nil {
		writeJSON(rw, struct{}{})
		return
	}
	writeJSON(rw, statsJSON(svc.Stats()))
}

// modelLatencyJSON is one model's latency summary in milliseconds.
type modelLatencyJSON struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50MS"`
	P95MS float64 `json:"p95MS"`
	P99MS float64 `json:"p99MS"`
}

// serviceStatsJSON mirrors copse.ServiceStats with durations in
// milliseconds.
type serviceStatsJSON struct {
	Requests        int64                       `json:"requests"`
	Queries         int64                       `json:"queries"`
	Failures        int64                       `json:"failures"`
	InFlight        int64                       `json:"inFlight"`
	Shed            int64                       `json:"shed"`
	DeadlineRejects int64                       `json:"deadlineRejects"`
	PanicsRecovered int64                       `json:"panicsRecovered"`
	MeanLatencyMS   float64                     `json:"meanLatencyMS"`
	Workers         int                         `json:"workers"`
	Utilisation     float64                     `json:"utilisation"`
	ModelLatency    map[string]modelLatencyJSON `json:"modelLatency,omitempty"`

	// Query operands the passes consumed and the bit planes per operand
	// the traffic's batch fill realized (DESIGN.md §13.4).
	QueryCiphertexts    int64   `json:"queryCiphertexts"`
	PlanesPerCiphertext float64 `json:"planesPerCiphertext"`
	// Stacked level operands the passes multiplied the branch vector with
	// and the level matrices per operand their lanes carried (§13.5).
	LevelOperands    int64   `json:"levelOperands"`
	LevelsPerOperand float64 `json:"levelsPerOperand"`
}

func statsJSON(st copse.ServiceStats) serviceStatsJSON {
	out := serviceStatsJSON{
		Requests:        st.Requests,
		Queries:         st.Queries,
		Failures:        st.Failures,
		InFlight:        st.InFlight,
		Shed:            st.Shed,
		DeadlineRejects: st.DeadlineRejects,
		PanicsRecovered: st.PanicsRecovered,
		MeanLatencyMS:   ms(st.MeanLatency()),
		Workers:         st.Workers,
		Utilisation:     st.Utilisation(),

		QueryCiphertexts:    st.QueryCiphertexts,
		PlanesPerCiphertext: st.PlanesPerCiphertext(),
		LevelOperands:       st.LevelOperands,
		LevelsPerOperand:    st.LevelsPerOperand(),
	}
	if len(st.ModelLatency) > 0 {
		out.ModelLatency = make(map[string]modelLatencyJSON, len(st.ModelLatency))
		for name, l := range st.ModelLatency {
			out.ModelLatency[name] = modelLatencyJSON{
				Count: l.Count,
				P50MS: ms(l.P50),
				P95MS: ms(l.P95),
				P99MS: ms(l.P99),
			}
		}
	}
	return out
}

func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(v)
}

func httpError(rw http.ResponseWriter, status int, err error) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(map[string]string{"error": err.Error()})
}

// classifyError maps the serving error taxonomy (DESIGN.md §15) onto
// HTTP: overload is a typed 429 with a Retry-After hint — distinct
// from 503 model-unavailable — deadline exhaustion is 504, and
// recovered panics surface as 500.
func classifyError(rw http.ResponseWriter, err error) {
	var overload *copse.OverloadError
	var deadline *copse.DeadlineError
	switch {
	case errors.As(err, &overload):
		retryAfter := max(int64(overload.RetryAfter/time.Second), 1)
		rw.Header().Set("Retry-After", strconv.FormatInt(retryAfter, 10))
		httpError(rw, http.StatusTooManyRequests, err)
	case errors.As(err, &deadline), errors.Is(err, context.DeadlineExceeded):
		httpError(rw, http.StatusGatewayTimeout, err)
	default:
		httpError(rw, http.StatusInternalServerError, err)
	}
}
