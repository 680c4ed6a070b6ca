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
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"

	"copse"
	"copse/internal/bgv"
	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/he/hebgv"
)

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
	// Seed. It must carry the secret key; the worker makes whatever
	// evaluation keys its shards need that the material lacks.
	Material *hebgv.Material
	// Service holds the options of the worker's copse.Service — the
	// per-pass worker goroutines, the in-flight cap and the shed queue
	// behind its typed 429 + Retry-After. The worker appends its own
	// copse.WithExternalBackend and copse.WithScenario(ScenarioServerModel)
	// last: the backend is the one the key contract derives, and shard
	// artifacts carry plaintext models.
	Service []copse.Option
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
// otherwise derived from the manifest's key contract (the chain length)
// and cfg.Seed — the same key pair on every worker sharing the seed,
// because key generation is deterministic in the contract. Every shard
// (of this or other forests) shares the backend and makes the Galois
// keys its staged programs rotate by that the worker lacks, at the
// levels they rotate at; passes of shards already staged keep running
// while it does.
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
		if m.Secret == nil {
			return fmt.Errorf("cluster: worker key material needs the secret key")
		}
		backend, err = hebgv.NewFromMaterial(hebgv.Config{Seed: w.cfg.Seed}, m)
	} else {
		if w.cfg.Seed == 0 {
			return fmt.Errorf("cluster: worker needs a non-zero shared seed (or explicit key material) so every node derives the same key set")
		}
		var params bgv.Params
		params, err = bgv.ParamsForSlots(manifest.Meta.Slots, manifest.Meta.ChainLevels(false))
		if err != nil {
			return err
		}
		backend, err = hebgv.New(hebgv.Config{Params: params, Seed: w.cfg.Seed})
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
	// and result ciphertexts, and every shard's plaintext-model plan fits
	// the parent's chain the backend was built with.
	w.svc = copse.NewService(append(slices.Clip(w.cfg.Service),
		copse.WithExternalBackend(backend),
		copse.WithScenario(copse.ScenarioServerModel),
	)...)
	return nil
}

// Fingerprint returns the worker's key-set fingerprint (empty before
// the first AddShard).
func (w *Worker) Fingerprint() string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.fingerprint
}

// Material returns the worker's full key material — the secret key and
// every evaluation key made so far — for distribution to sibling
// workers, or nil before the first AddShard. Handle with the same care
// as the secret key itself.
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
	WriteJSON(rw, info)
}

func (w *Worker) handleKeys(rw http.ResponseWriter, _ *http.Request) {
	w.mu.RLock()
	backend := w.backend
	w.mu.RUnlock()
	if backend == nil {
		httpError(rw, http.StatusServiceUnavailable, fmt.Errorf("cluster: no key set yet"))
		return
	}
	// The gateway encrypts and adds: parameters and public key only.
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
		WriteError(rw, err)
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
		return nil, &copse.UnknownModelError{Model: name}
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
		WriteError(rw, err)
		return
	}
	// AddShard writes the shard map under w.mu, so it is read under it.
	w.mu.RLock()
	reg, ok := wf.shards[shardIdx]
	backend, svc := w.backend, w.svc
	w.mu.RUnlock()
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
	// The imported query and the shard result are this request's own:
	// they go back to the backend's pool once the pass has read the one
	// and the frame holds the other.
	bits := make([]he.Operand, len(cts))
	for i, wc := range cts {
		ct, err := backend.ImportCiphertext(wc.Ct, wc.Depth)
		if err != nil {
			httpError(rw, http.StatusBadRequest, err)
			return
		}
		bits[i] = he.Cipher(ct)
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
	for _, b := range bits {
		he.Release(b.Ct)
	}
	if err != nil {
		WriteError(rw, err)
		return
	}
	op := enc.Operand()
	if !op.IsCipher() {
		httpError(rw, http.StatusInternalServerError, fmt.Errorf("cluster: shard result is not a ciphertext"))
		return
	}
	raw, depth, err := backend.ExportCiphertext(op.Ct)
	if err != nil {
		httpError(rw, http.StatusInternalServerError, err)
		return
	}
	var buf bytes.Buffer
	err = EncodeCiphertexts(&buf, []WireCiphertext{{Ct: raw, Depth: depth}})
	he.Release(op.Ct)
	if err != nil {
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
		WriteError(rw, err)
		return
	}
	count, err := strconv.Atoi(qv.Get("count"))
	if err != nil || count < 1 {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("cluster: bad result count %q", qv.Get("count")))
		return
	}
	gm := &wf.manifest.Meta
	if cap := gm.BatchCapacity(); count > cap {
		WriteError(rw, &core.BatchCapacityError{Index: count, Capacity: cap})
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
	ct, err := backend.ImportCiphertext(cts[0].Ct, cts[0].Depth)
	if err != nil {
		httpError(rw, http.StatusBadRequest, err)
		return
	}
	slots, err := backend.Decrypt(ct)
	if err != nil {
		httpError(rw, http.StatusInternalServerError, err)
		return
	}
	results, err := core.DecodeResultBatch(gm, slots, count, gm.QueryCapacity(gm.PlanesPerCiphertext(count)))
	if err != nil {
		httpError(rw, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(rw, DecodeResults(results, gm.LabelNames))
}

func (w *Worker) handleStats(rw http.ResponseWriter, _ *http.Request) {
	w.mu.RLock()
	svc := w.svc
	w.mu.RUnlock()
	if svc == nil {
		WriteJSON(rw, struct{}{})
		return
	}
	WriteJSON(rw, svc.Stats())
}
