package copse

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"copse/internal/bgv"
	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/he/heclear"
	"copse/internal/hist"
	"copse/internal/matrix"
)

// Service is the concurrent, batched serving layer: a registry of
// compiled models staged onto one shared backend (one key set), with
// slot-packed multi-query classification and a concurrency contract —
// every method is safe to call from many goroutines.
//
// Where System wires the paper's three notional parties around a single
// model, Service is the deployment shape of the related outsourcing
// work: a server holding several staged models, answering batches of
// up to Meta.BatchCapacity() queries per homomorphic pass, under an
// optional in-flight limit with queue-wait and latency accounting. The
// BGV ring and chain come from the first registered model (its slot
// count and level plan), not from an option:
//
//	svc := copse.NewService(
//		copse.WithBackend(copse.BackendBGV),
//		copse.WithWorkers(8),
//	)
//	svc.Register("fraud", compiled)
//	results, err := svc.ClassifyBatch(ctx, "fraud", batch)
type Service struct {
	cfg serviceConfig

	mu          sync.RWMutex
	backend     he.Backend
	models      map[string]*servedModel
	aggregators map[string]*aggregator // per-model dynamic batchers (lazy)

	sem chan struct{} // in-flight limiter; nil = unlimited

	// closing is closed by Close; runCtx is the lifetime context shared
	// passes run under (a cancelled waiter must not cancel its pass).
	closing   chan struct{}
	closeOnce sync.Once
	runCtx    context.Context
	runCancel context.CancelFunc

	shuffleSeq atomic.Uint64 // per-pass shuffle seed sequence

	requests  atomic.Int64
	queries   atomic.Int64
	failures  atomic.Int64
	inFlight  atomic.Int64
	queueNS   atomic.Int64
	latencyNS atomic.Int64
	// Op run time summed over workers, and stage wall time, of every
	// finished pass: their ratio over the worker count is the
	// utilisation Stats reports.
	busyNS  atomic.Int64
	stageNS atomic.Int64
	// Bit planes classified and the query operands that carried them: their
	// ratio is the plane packing the traffic's batch fill realized.
	queryPlanes atomic.Int64
	queryCts    atomic.Int64
	levelMats   atomic.Int64
	levelOps    atomic.Int64

	// Resilience counters (DESIGN.md §15). queued tracks calls waiting
	// for an in-flight slot (the shed-queue depth); the others are
	// included in Failures.
	queued          atomic.Int64
	shed            atomic.Int64
	deadlineRejects atomic.Int64
	panicsRecovered atomic.Int64

	// Dynamic-batcher counters (DESIGN.md §11).
	aggPasses  atomic.Int64
	aggQueries atomic.Int64
	aggFillNum atomic.Int64
	aggFillDen atomic.Int64
	aggWaitNS  atomic.Int64
}

// servedModel is one registry entry: the compiled model staged onto the
// service backend plus its (stateless, concurrency-safe) engine.
type servedModel struct {
	compiled *Compiled
	operands *core.ModelOperands
	engine   *core.Engine
	latency  *hist.Histogram // per-pass classification latency
}

type serviceConfig struct {
	backend      BackendKind
	scenario     Scenario
	workers      int
	maxInFlight  int
	levels       int
	seed         uint64
	shuffle      bool
	measureNoise bool
	batchWindow  time.Duration
	extBackend   he.Backend
	shedQueue    int
}

// Option configures a Service (functional options).
type Option func(*serviceConfig)

// WithBackend selects the homomorphic backend (default BackendBGV).
func WithBackend(k BackendKind) Option { return func(c *serviceConfig) { c.backend = k } }

// WithScenario selects the party configuration governing what is
// encrypted (default ScenarioOffload: model and features both
// encrypted).
func WithScenario(s Scenario) Option { return func(c *serviceConfig) { c.scenario = s } }

// WithWorkers sets the number of goroutines each classification pass
// runs its ops on (the paper's multithreaded mode): 0 = GOMAXPROCS (the
// default), 1 = sequential. Results are bit-identical at any count.
func WithWorkers(n int) Option { return func(c *serviceConfig) { c.workers = n } }

// WithMaxInFlight caps how many classifications run concurrently;
// excess calls queue (their wait is reported by Stats). 0 means
// unlimited.
func WithMaxInFlight(n int) Option { return func(c *serviceConfig) { c.maxInFlight = n } }

// WithShedQueue bounds how many calls may wait for an in-flight slot
// before the service sheds load: once all WithMaxInFlight slots are
// busy and n calls are already queued, further calls fail immediately
// with a typed *OverloadError (HTTP 429 + Retry-After in copse-serve)
// instead of growing an unbounded backlog of doomed work. 0 (the
// default) queues without bound; the option has no effect without
// WithMaxInFlight.
func WithShedQueue(n int) Option { return func(c *serviceConfig) { c.shedQueue = n } }

// WithLevels overrides the BGV chain length the first registered model's
// level plan sizes (the ring itself always follows from its slot count);
// Register refuses a model whose plan needs a longer one.
func WithLevels(n int) Option { return func(c *serviceConfig) { c.levels = n } }

// WithSeed makes key generation and encryption deterministic (tests and
// reproducible experiments only — never production). Under WithShuffle
// it also fixes the shuffle-seed sequence, so anyone who knows the seed
// can regenerate every pass's permutations and undo the §7.2.2 leakage
// hardening; shuffled production services must leave the seed zero
// (per-pass random seeds).
func WithSeed(seed uint64) Option { return func(c *serviceConfig) { c.seed = seed } }

// WithShuffle enables result shuffling (paper §7.2.2) on every
// classification pass: each packed query's leaf slots are permuted by a
// per-pass, per-block random permutation — the op program's fifth stage,
// one block-diagonal mat-vec for the whole batch (DESIGN.md §10) — so the
// decrypted result no longer reveals the order of the labels in the
// forest's trees. Results decode through the per-query codebooks carried
// on the EncryptedResult (DecryptResult[Batch] handles this
// transparently); per-tree labels are unrecoverable by design, only vote
// counts remain. Models must be compiled with CompileOptions.PlanShuffle
// (artifacts older than the level plan are planned with it at load) so the
// classification result keeps the shuffle's level headroom — Register
// refuses one that does not with a *PlanInfeasibleError for the shuffle
// stage.
func WithShuffle(on bool) Option { return func(c *serviceConfig) { c.shuffle = on } }

// WithNoiseMeasurement records the decrypt-side measured noise budget of
// the pipeline carrier at every stage boundary in each pass's
// Trace.Noise (the benchmark's core.result_noise_bits). Measurement
// decrypts, so it requires the secret key and costs one decryption per
// stage — a benchmarking knob, not a serving default.
func WithNoiseMeasurement(on bool) Option { return func(c *serviceConfig) { c.measureNoise = on } }

// WithExternalBackend hands the service a pre-built backend instead of
// letting the first Register construct one. This is how cluster worker
// nodes share one wire-distributed key set: every worker builds the
// same hebgv backend from the shard manifest (or from serialized key
// material) and its service stages shard models onto it. The service
// takes ownership — Close closes the backend. The backend must match
// every registered model's slot count; the levels and seed options are
// ignored for backend construction.
func WithExternalBackend(b he.Backend) Option { return func(c *serviceConfig) { c.extBackend = b } }

// NewService returns an empty service. The backend (and, for BGV, the
// key set) is created by the first Register call, whose model's slot
// count picks the ring; every later model must be staged for the same
// count.
func NewService(opts ...Option) *Service {
	cfg := serviceConfig{backend: BackendBGV, scenario: ScenarioOffload}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	s := &Service{
		cfg:         cfg,
		models:      map[string]*servedModel{},
		aggregators: map[string]*aggregator{},
		closing:     make(chan struct{}),
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	if cfg.maxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.maxInFlight)
	}
	return s
}

// newBackend builds the shared backend for a first registered model,
// staged encrypted when encModel is set.
func (s *Service) newBackend(c *Compiled, encModel bool) (he.Backend, error) {
	switch s.cfg.backend {
	case BackendClear:
		return heclear.New(c.Meta.Slots, 65537), nil
	case BackendBGV:
		levels := s.cfg.levels
		if levels == 0 {
			// The scheduled pipeline tops out at the plan's compare entry:
			// a shorter chain means smaller keys, cheaper key generation,
			// and every top-level op running over the fraction of the chain
			// the schedule actually uses.
			levels = c.Meta.ChainLevels(encModel)
		}
		params, err := bgv.ParamsForSlots(c.Meta.Slots, levels)
		if err != nil {
			return nil, err
		}
		// The key pair and the relinearization key only: staging each
		// model makes the Galois keys its programs rotate by.
		return hebgv.New(hebgv.Config{Params: params, Seed: s.cfg.seed})
	}
	return nil, fmt.Errorf("copse: unknown backend kind %d", s.cfg.backend)
}

// Close stops every dynamic-batcher goroutine, failing any callers
// still lingering in a forming batch, and closes a backend that has a
// Close method (WithExternalBackend); the service must not be used
// afterwards. Safe to call on a service that never registered a model,
// and idempotent.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		close(s.closing) // aggregator goroutines drain and exit
		s.runCancel()
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.backend.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Register stages a compiled model under a name, sharing the service's
// backend and key set with every other registered model. The first
// registration creates the backend (the key pair and relinearization
// key, on a modulus chain sized to that model's level plan); later models
// must be staged for the same slot count, and a later model needing a
// longer chain than the backend has (ChainLevels) is refused with a
// *PlanInfeasibleError. Register a service's deepest model first (or fix
// the chain with WithLevels). The scenario fixes what is encrypted, so
// each plane packing stages the one op program the scenario's queries run.
// Every registration makes the Galois keys its model's op programs rotate
// by that the service lacks, each at the highest level a program rotates
// it at (DESIGN.md §7.3); models already serving keep running while it
// does.
func (s *Service) Register(name string, c *Compiled) error {
	if name == "" {
		return fmt.Errorf("copse: empty model name")
	}
	encryptModel, encryptFeats, err := scenarioEncryption(s.cfg.scenario)
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.models[name]; dup {
		return fmt.Errorf("copse: model %q already registered", name)
	}
	if s.backend == nil {
		if s.cfg.extBackend != nil {
			s.backend = s.cfg.extBackend
		} else {
			b, err := s.newBackend(c, encryptModel)
			if err != nil {
				return err
			}
			s.backend = b
		}
	}
	if s.backend.Slots() != c.Meta.Slots {
		return fmt.Errorf("copse: model %q staged for %d slots but service backend has %d",
			name, c.Meta.Slots, s.backend.Slots())
	}
	operands, err := core.Prepare(s.backend, c, encryptModel, encryptFeats, s.cfg.shuffle)
	if err != nil {
		return err
	}
	s.models[name] = &servedModel{
		compiled: c,
		operands: operands,
		latency:  hist.New(),
		engine:   &core.Engine{Backend: s.backend, Workers: s.cfg.workers, MeasureNoise: s.cfg.measureNoise},
	}
	return nil
}

// Models returns the registered model names, sorted.
func (s *Service) Models() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.models))
	for name := range s.models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (s *Service) lookup(name string) (*servedModel, he.Backend, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.models[name]
	if !ok {
		return nil, nil, &UnknownModelError{Model: name}
	}
	return m, s.backend, nil
}

// Meta returns the public parameters of a registered model.
func (s *Service) Meta(name string) (*Meta, error) {
	m, _, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return &m.operands.Meta, nil
}

// BatchCapacity returns how many queries one classification pass of the
// named model can answer (Meta.BatchCapacity).
func (s *Service) BatchCapacity(name string) (int, error) {
	m, _, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	return m.operands.Meta.BatchCapacity(), nil
}

// ServerView reports what the evaluating server can infer about the
// named model from artifact shapes alone (the executable form of
// Table 3's leakage).
func (s *Service) ServerView(name string) (core.ServerView, error) {
	m, _, err := s.lookup(name)
	if err != nil {
		return core.ServerView{}, err
	}
	return core.InferServerView(m.operands), nil
}

// Backend exposes the shared backend (op counting and diagnostics); nil
// before the first Register.
func (s *Service) Backend() he.Backend {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.backend
}

// EncryptQuery prepares a single feature vector for the named model.
func (s *Service) EncryptQuery(name string, features []uint64) (*Query, error) {
	return s.EncryptQueryBatch(name, [][]uint64{features})
}

// EncryptQueryBatch slot-packs feature vectors into encrypted query
// sets. Up to BatchCapacity vectors share one set and one Classify
// pass answers all of them; a larger batch is split transparently into
// a chain of capacity-sized sets (Query.Next) which Classify runs as
// ceil(len/capacity) passes — the service boundary never surfaces the
// low-level *core.BatchCapacityError, which remains the contract of
// the single-pass core.PrepareQueryBatch API.
func (s *Service) EncryptQueryBatch(name string, batch [][]uint64) (*Query, error) {
	m, backend, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	_, encFeats, err := scenarioEncryption(s.cfg.scenario)
	if err != nil {
		return nil, err
	}
	meta := &m.operands.Meta
	capacity := meta.BatchCapacity()
	if len(batch) <= capacity {
		return s.prepareBatch(backend, meta, batch, encFeats)
	}
	var head *Query
	var tail *Query
	for lo := 0; lo < len(batch); lo += capacity {
		q, err := s.prepareBatch(backend, meta, batch[lo:min(lo+capacity, len(batch))], encFeats)
		if err != nil {
			return nil, err
		}
		if head == nil {
			head = q
		} else {
			tail.Next = q
		}
		tail = q
	}
	return head, nil
}

// prepareBatch runs one core.PrepareQueryBatch pass with the same
// panic isolation as the classify pipeline: encryption panics — direct
// or recovered inside a matrix worker — surface as a typed
// *InternalError on this request only.
func (s *Service) prepareBatch(backend he.Backend, meta *core.Meta, batch [][]uint64, encFeats bool) (q *Query, err error) {
	defer s.isolate("encrypt", &err)
	return core.PrepareQueryBatch(backend, meta, batch, encFeats)
}

// isolate, deferred by a serving step that returns its error through err,
// turns a panic in the step — direct, or recovered inside a matrix worker
// and surfaced as *matrix.PanicError — into a typed *InternalError for op
// on this request only, instead of killing the process and every other
// in-flight pass with it.
func (s *Service) isolate(op string, err *error) {
	if r := recover(); r != nil {
		s.panicsRecovered.Add(1)
		*err = &InternalError{Op: op, Value: r, Stack: debug.Stack()}
		return
	}
	var pe *matrix.PanicError
	if errors.As(*err, &pe) {
		s.panicsRecovered.Add(1)
		*err = &InternalError{Op: op, Value: pe.Value, Stack: pe.Stack}
	}
}

// Classify runs Algorithm 1 on a prepared (possibly batched) query.
// It is safe to call from many goroutines; with WithMaxInFlight set,
// excess calls queue (cancellable while queued) and the wait shows up
// in Stats. The context is also checked between pipeline stages. A
// query chained across several sets (EncryptQueryBatch of more than
// BatchCapacity vectors) runs one pass per link — concurrently, under
// the in-flight cap — and returns one combined result; the trace then
// aggregates the links (durations and op bills summed).
func (s *Service) Classify(ctx context.Context, name string, q *Query) (*EncryptedResult, *Trace, error) {
	var links []*Query
	for l := q; l != nil; l = l.Next {
		links = append(links, l)
	}
	encs := make([]*EncryptedResult, len(links))
	traces := make([]*Trace, len(links))
	err := s.passes(len(links), func(i int, seed uint64) (err error) {
		encs[i], traces[i], err = s.classify(ctx, name, links[i], seed)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if len(links) == 1 {
		return encs[0], traces[0], nil
	}
	merged := &EncryptedResult{}
	trace := &Trace{}
	for i, enc := range encs {
		merged.segs = append(merged.segs, enc.segs...)
		addTrace(trace, traces[i])
	}
	return merged, trace, nil
}

// addTrace accumulates one pass's trace into an aggregate: durations,
// op bills and query and level operands sum, limb/noise fields, the plane
// packing and the level lanes and groups keep the first pass's view.
func addTrace(dst, src *Trace) {
	if src == nil {
		return
	}
	dst.Compare += src.Compare
	dst.Reshuffle += src.Reshuffle
	dst.Levels += src.Levels
	dst.Accumulate += src.Accumulate
	dst.Shuffle += src.Shuffle
	dst.Total += src.Total
	dst.CompareBusy += src.CompareBusy
	dst.ReshuffleBusy += src.ReshuffleBusy
	dst.LevelsBusy += src.LevelsBusy
	dst.AccumulateBusy += src.AccumulateBusy
	dst.ShuffleBusy += src.ShuffleBusy
	dst.Workers = src.Workers
	dst.QueryCiphertexts += src.QueryCiphertexts
	dst.LevelOperands += src.LevelOperands
	if dst.PlanesPerCiphertext == 0 {
		dst.PlanesPerCiphertext, dst.LevelLanes, dst.LevelGroups = src.PlanesPerCiphertext, src.LevelLanes, src.LevelGroups
	}
	dst.CompareOps = dst.CompareOps.Plus(src.CompareOps)
	dst.ReshuffleOps = dst.ReshuffleOps.Plus(src.ReshuffleOps)
	dst.LevelOps = dst.LevelOps.Plus(src.LevelOps)
	dst.AccumulateOps = dst.AccumulateOps.Plus(src.AccumulateOps)
	dst.ShuffleOps = dst.ShuffleOps.Plus(src.ShuffleOps)
	if dst.Limbs == (core.StageLimbs{}) {
		dst.Limbs = src.Limbs
	}
	if dst.Noise == (core.StageNoise{}) {
		dst.Noise = src.Noise
	}
	if dst.Executor == "" {
		dst.Executor = src.Executor
	}
}

// passes runs n independent passes concurrently — bounded by
// WithMaxInFlight when set and by the host's core count — handing pass i
// the i-th shuffle seed of a block reserved up front, so seeded shuffled
// runs reproduce whichever pass's goroutine runs first. It is the one
// multi-pass runner: Classify's chained links and classifyChunks' chunks
// both run here.
func (s *Service) passes(n int, run func(i int, seed uint64) error) error {
	workers := min(n, runtime.GOMAXPROCS(0))
	if s.cfg.maxInFlight > 0 {
		workers = min(workers, s.cfg.maxInFlight)
	}
	base := s.shuffleSeedBlock(n)
	return matrix.ParallelFor(n, workers, func(i int) error {
		return run(i, base+uint64(i)*shuffleSeedStride)
	})
}

// classify runs one pass of Algorithm 1 over one query link — admission,
// the in-flight slot, the engine pass and the serving counters — with
// the shuffle seed its caller reserved (unused on an unshuffled service).
func (s *Service) classify(ctx context.Context, name string, q *Query, seed uint64) (*EncryptedResult, *Trace, error) {
	m, _, err := s.lookup(name)
	if err != nil {
		return nil, nil, err
	}
	// Deadline fast-fail: once the model has latency history, a request
	// whose remaining budget cannot cover even a typical pass is rejected
	// before any homomorphic work is spent on it (DESIGN.md §15).
	if deadline, ok := ctx.Deadline(); ok {
		if est := passEstimate(m); est > 0 {
			if remaining := time.Until(deadline); remaining < est {
				s.deadlineRejects.Add(1)
				s.failures.Add(1)
				return nil, nil, &DeadlineError{Stage: "admit", Remaining: remaining, Needed: est}
			}
		}
	}
	enqueued := time.Now()
	if err := s.admit(ctx, name, m); err != nil {
		return nil, nil, err
	}
	if s.sem != nil {
		defer func() { <-s.sem }()
	}
	// Requests/Queries count passes that reached execution, so a burst
	// of queued-then-cancelled calls (counted in Failures) does not
	// inflate the throughput counters or dilute the latency means.
	s.requests.Add(1)
	s.queries.Add(int64(max(q.Batch, 1)))
	if s.sem != nil {
		s.queueNS.Add(time.Since(enqueued).Nanoseconds())
	}

	s.inFlight.Add(1)
	start := time.Now()
	op, codebooks, trace, err := s.execute(ctx, m, q, seed)
	elapsed := time.Since(start)
	s.latencyNS.Add(elapsed.Nanoseconds())
	m.latency.Observe(elapsed)
	s.inFlight.Add(-1)
	if err != nil {
		s.failures.Add(1)
		return nil, nil, err
	}
	s.busyNS.Add(int64(trace.Busy()))
	s.stageNS.Add(int64(trace.StageTime()))
	s.queryPlanes.Add(int64(m.operands.Meta.Precision))
	s.queryCts.Add(int64(trace.QueryCiphertexts))
	s.levelMats.Add(int64(m.operands.Meta.D))
	s.levelOps.Add(int64(trace.LevelOperands))
	seg := resultSeg{op: op, batch: max(q.Batch, 1), capacity: m.operands.Meta.QueryCapacity(q.PlanesPerCiphertext), codebooks: codebooks}
	return &EncryptedResult{segs: []resultSeg{seg}}, trace, nil
}

// admit acquires an in-flight slot (when WithMaxInFlight is set),
// shedding load with a typed *OverloadError once the bounded wait
// queue (WithShedQueue) is full. The caller releases the slot.
func (s *Service) admit(ctx context.Context, name string, m *servedModel) error {
	if s.sem == nil {
		return nil
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	// All slots busy. With a shed bound, joining the queue is
	// conditional on its depth; without one, wait indefinitely (the
	// pre-shedding behaviour).
	if q := s.cfg.shedQueue; q > 0 {
		if cur := s.queued.Add(1); cur > int64(q) {
			s.queued.Add(-1)
			s.shed.Add(1)
			s.failures.Add(1)
			return &OverloadError{Model: name, Queued: q, RetryAfter: s.retryAfter(m)}
		}
	} else {
		s.queued.Add(1)
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.failures.Add(1)
		return ctx.Err()
	}
}

// execute is the engine pass of classify, panic-isolated.
func (s *Service) execute(ctx context.Context, m *servedModel, q *Query, seed uint64) (op he.Operand, codebooks []*core.ShuffledCodebook, trace *core.Trace, err error) {
	defer s.isolate("classify", &err)
	return m.engine.Classify(ctx, m.operands, q, seed)
}

// passEstimate is the model's typical per-pass latency (the observed
// p50), or 0 until enough passes have been recorded to trust it.
func passEstimate(m *servedModel) time.Duration {
	snap := m.latency.Snapshot()
	if snap.Count < 4 {
		return 0
	}
	return snap.Quantile(0.50)
}

// retryAfter estimates when a shed caller should try again: the queue
// it would have joined, drained at one typical pass per in-flight slot.
func (s *Service) retryAfter(m *servedModel) time.Duration {
	est := passEstimate(m)
	if est == 0 {
		est = 100 * time.Millisecond
	}
	waves := 1 + s.cfg.shedQueue/max(s.cfg.maxInFlight, 1)
	return time.Duration(waves) * est
}

// shuffleSeedStride spaces consecutive seeds of the per-pass sequence
// (an odd constant, so the walk covers the whole 2^64 ring).
const shuffleSeedStride = 0x9e3779b97f4a7c15

// shuffleSeedBlock atomically reserves n consecutive seeds of the
// per-pass sequence and returns the first; the caller derives seed i as
// base + i·shuffleSeedStride. The seeds are random by default and the
// next elements of a deterministic sequence under WithSeed; an
// unshuffled service reserves nothing and gets 0. Distinct calls never
// overlap (the range is consumed from the shared counter), so no two
// passes — chunked, batched or direct — share a permutation, and every
// caller reserves before its passes run, so seeded runs reproduce
// whatever the scheduling.
func (s *Service) shuffleSeedBlock(n int) uint64 {
	if !s.cfg.shuffle {
		return 0
	}
	hi := s.shuffleSeq.Add(uint64(n))
	if s.cfg.seed != 0 {
		return s.cfg.seed + (hi-uint64(n)+1)*shuffleSeedStride
	}
	return rand.Uint64()
}

// DecryptResult decrypts and decodes a single-query classification.
func (s *Service) DecryptResult(name string, r *EncryptedResult) (*Result, error) {
	results, err := s.DecryptResultBatch(name, r)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// DecryptResultBatch decrypts one classification — every pass of a
// chained multi-pass result — and decodes every packed query's result,
// in the order the batch was packed. Shuffled results (WithShuffle)
// decode through their per-query codebooks: the Results carry vote
// counts only — per-tree labels and raw leaf bits are hidden by the
// shuffle, by design.
func (s *Service) DecryptResultBatch(name string, r *EncryptedResult) ([]*Result, error) {
	m, backend, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	meta := &m.operands.Meta
	var out []*Result
	for _, seg := range r.segs {
		slots, err := he.Reveal(backend, seg.op)
		if err != nil {
			return nil, err
		}
		var results []*Result
		if seg.codebooks != nil {
			results, err = core.DecodeShuffledBatch(seg.codebooks, len(meta.LabelNames), slots, meta.BatchBlock())
		} else {
			results, err = core.DecodeResultBatch(meta, slots, max(seg.batch, 1), seg.capacity)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, results...)
	}
	return out, nil
}

// ClassifyBatch is the end-to-end serving loop: slot-pack the feature
// vectors, run one homomorphic pass, decrypt and decode per-query
// results. Batches larger than the model's capacity are split into
// ceil(len/capacity) passes which run concurrently (the passes are
// independent and Classify is concurrency-safe), bounded by
// WithMaxInFlight when set and by the host's core count otherwise.
func (s *Service) ClassifyBatch(ctx context.Context, name string, batch [][]uint64) ([]*Result, error) {
	results, _, err := s.classifyChunks(ctx, name, batch)
	return results, err
}

// ClassifyBatchShuffled is ClassifyBatch with the shuffled decoding
// surface exposed: alongside each query's decoded Result (vote counts;
// per-tree labels are hidden by the shuffle) it returns the per-query
// ShuffledCodebook the result was decoded through — what a deployment
// hands the data owner together with the shuffled ciphertext. Requires
// WithShuffle.
func (s *Service) ClassifyBatchShuffled(ctx context.Context, name string, batch [][]uint64) ([]*Result, []*ShuffledCodebook, error) {
	if !s.cfg.shuffle {
		return nil, nil, fmt.Errorf("copse: service built without WithShuffle")
	}
	return s.classifyChunks(ctx, name, batch)
}

// classifyChunks is the shared serving loop behind ClassifyBatch and
// ClassifyBatchShuffled: slot-pack, classify, decrypt, decode —
// chunked to the model's capacity, chunks running concurrently. With
// the dynamic batcher enabled (WithBatchWindow) the request is instead
// enqueued into the model's aggregator, where it shares slot-packed
// passes with every other concurrent caller — once its feature vectors
// are known good, so a malformed request fails alone.
func (s *Service) classifyChunks(ctx context.Context, name string, batch [][]uint64) ([]*Result, []*ShuffledCodebook, error) {
	if len(batch) == 0 {
		return nil, nil, fmt.Errorf("copse: empty batch")
	}
	m, _, err := s.lookup(name)
	if err != nil {
		return nil, nil, err
	}
	if err := m.operands.Meta.CheckFeatures(batch); err != nil {
		return nil, nil, err
	}
	if agg, err := s.aggregatorFor(name); err != nil {
		return nil, nil, err
	} else if agg != nil {
		return agg.submit(ctx, batch)
	}
	capacity := m.operands.Meta.BatchCapacity()
	out := make([]*Result, len(batch))
	var codebooks []*ShuffledCodebook
	if s.cfg.shuffle {
		codebooks = make([]*ShuffledCodebook, len(batch))
	}
	err = s.passes((len(batch)+capacity-1)/capacity, func(i int, seed uint64) error {
		lo := i * capacity
		hi := min(lo+capacity, len(batch))
		results, cbs, err := s.pass(ctx, name, batch[lo:hi], seed)
		if err != nil {
			return err
		}
		copy(out[lo:hi], results)
		if codebooks != nil {
			copy(codebooks[lo:hi], cbs)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, codebooks, nil
}

// pass answers at most one pass's worth of feature vectors end to end:
// encrypt them into one query, classify it with the shuffle seed the
// caller reserved, decrypt and decode, and return the results with their
// codebooks (nil unshuffled). The query and the result are the pass's
// own: they go back to the backend's pool once the pass no longer needs
// them (DESIGN.md §6.4). classifyChunks and the dynamic batcher both run
// their passes here.
func (s *Service) pass(ctx context.Context, name string, feats [][]uint64, seed uint64) ([]*Result, []*ShuffledCodebook, error) {
	q, err := s.EncryptQueryBatch(name, feats)
	if err != nil {
		return nil, nil, err
	}
	enc, _, err := s.classify(ctx, name, q, seed)
	releaseQuery(q)
	if err != nil {
		return nil, nil, err
	}
	results, err := s.DecryptResultBatch(name, enc)
	enc.release()
	if err != nil {
		return nil, nil, err
	}
	return results, enc.Codebooks(), nil
}

// ServiceStats is a snapshot of the serving counters.
type ServiceStats struct {
	// Requests counts Classify passes; Queries counts feature vectors
	// answered (Queries/Requests is the realized batch factor).
	Requests, Queries int64
	// Failures counts classifications that returned an error (including
	// cancellations).
	Failures int64
	// InFlight is the number of passes currently executing.
	InFlight int64
	// QueueWait is the cumulative time requests spent waiting for an
	// in-flight slot; zero without WithMaxInFlight.
	QueueWait time.Duration
	// Queued is the number of calls currently waiting for an in-flight
	// slot (the shed-queue depth).
	Queued int64
	// Shed counts calls rejected with *OverloadError because the
	// WithShedQueue bound was full; included in Failures.
	Shed int64
	// DeadlineRejects counts calls rejected with *DeadlineError because
	// their remaining budget could not cover a typical pass; included in
	// Failures.
	DeadlineRejects int64
	// PanicsRecovered counts panics recovered inside serving goroutines
	// and converted to *InternalError (DESIGN.md §15); the affected
	// requests are included in Failures.
	PanicsRecovered int64
	// Latency is the cumulative classification time (excluding queue
	// wait); Latency/Requests is the mean per-pass latency.
	Latency time.Duration
	// Workers is the number of goroutines each pass runs its ops on
	// (WithWorkers, resolved). Busy is the op run time of every finished
	// pass summed over those workers and StageTime the passes' pipeline
	// wall time, so Busy ÷ (StageTime × Workers) — Utilisation — is the
	// share of its cores the service kept busy while classifying.
	Workers         int
	Busy, StageTime time.Duration
	// QueryPlanes counts the bit planes the passes compared (the model's
	// precision, per pass) and QueryCiphertexts the query operands that
	// carried them: QueryPlanes ÷ QueryCiphertexts — PlanesPerCiphertext —
	// is the plane packing the traffic's batch fill realized, 1 when
	// every pass was more than half full.
	QueryPlanes, QueryCiphertexts int64
	// LevelMatrices counts the level matrices the passes evaluated (the
	// model's depth, per pass) and LevelOperands the stacked operands that
	// carried them, one mat-vec each: LevelMatrices ÷ LevelOperands —
	// LevelsPerOperand — is what the level lanes and lane groups of the
	// served models save, 1 when every block has room for one lane only
	// and every batch fills more blocks than a lane group holds.
	LevelMatrices, LevelOperands int64

	// BatcherPasses counts coalesced passes fired by the dynamic
	// batcher (WithBatchWindow); they are also included in Requests.
	BatcherPasses int64
	// CoalescedQueries counts queries answered through the batcher;
	// CoalescedQueries/BatcherPasses is its realized batch factor.
	CoalescedQueries int64
	// BatchFill is the mean fill ratio of batcher passes: queries per
	// pass over the model's batch capacity (1.0 = every pass full).
	BatchFill float64
	// BatchWait is the cumulative time queries lingered in a forming
	// batch before their pass fired.
	BatchWait time.Duration

	// ModelLatency summarizes each registered model's per-pass
	// classification latency distribution, recorded into fixed
	// log-spaced buckets (internal/hist), so snapshots from different
	// times or nodes are directly comparable.
	ModelLatency map[string]LatencyStats
}

// LatencyStats is one model's latency distribution summary: the pass
// count and interpolated p50/p95/p99 over fixed log-spaced buckets.
type LatencyStats struct {
	Count         int64
	P50, P95, P99 time.Duration
}

// MarshalJSON renders the summary with its quantiles in milliseconds.
func (l LatencyStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Count int64   `json:"count"`
		P50MS float64 `json:"p50MS"`
		P95MS float64 `json:"p95MS"`
		P99MS float64 `json:"p99MS"`
	}{l.Count, millis(l.P50), millis(l.P95), millis(l.P99)})
}

// MarshalJSON renders the snapshot as the /v1/stats body of a
// single-node server and of a cluster worker: the counters, the mean
// latencies in milliseconds, and the derived ratios.
func (st ServiceStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
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
		// Dynamic batcher counters (zero without WithBatchWindow).
		BatcherPasses    int64   `json:"batcherPasses"`
		CoalescedQueries int64   `json:"coalescedQueries"`
		BatchFill        float64 `json:"batchFill"`
		MeanBatchWaitMS  float64 `json:"meanBatchWaitMS"`
		// Per-model latency quantiles from the fixed log-spaced histograms.
		ModelLatency map[string]LatencyStats `json:"modelLatency,omitempty"`
	}{
		Requests:            st.Requests,
		Queries:             st.Queries,
		Failures:            st.Failures,
		InFlight:            st.InFlight,
		Queued:              st.Queued,
		MeanLatencyMS:       millis(st.MeanLatency()),
		MeanQueueWaitMS:     millis(st.MeanQueueWait()),
		Workers:             st.Workers,
		Utilisation:         st.Utilisation(),
		QueryCiphertexts:    st.QueryCiphertexts,
		PlanesPerCiphertext: st.PlanesPerCiphertext(),
		LevelOperands:       st.LevelOperands,
		LevelsPerOperand:    st.LevelsPerOperand(),
		Shed:                st.Shed,
		DeadlineRejects:     st.DeadlineRejects,
		PanicsRecovered:     st.PanicsRecovered,
		BatcherPasses:       st.BatcherPasses,
		CoalescedQueries:    st.CoalescedQueries,
		BatchFill:           st.BatchFill,
		MeanBatchWaitMS:     millis(st.MeanBatchWait()),
		ModelLatency:        st.ModelLatency,
	})
}

// millis is d in milliseconds, to the microsecond.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// MeanLatency returns the mean per-pass classification latency.
func (st ServiceStats) MeanLatency() time.Duration {
	if st.Requests == 0 {
		return 0
	}
	return st.Latency / time.Duration(st.Requests)
}

// Utilisation is Busy ÷ (StageTime × Workers): 1 when every worker ran
// ops for the whole of every pass, 0 before the first pass.
func (st ServiceStats) Utilisation() float64 {
	if st.StageTime <= 0 || st.Workers <= 0 {
		return 0
	}
	return float64(st.Busy) / (float64(st.StageTime) * float64(st.Workers))
}

// PlanesPerCiphertext is QueryPlanes ÷ QueryCiphertexts, 0 before the
// first pass.
func (st ServiceStats) PlanesPerCiphertext() float64 {
	if st.QueryCiphertexts == 0 {
		return 0
	}
	return float64(st.QueryPlanes) / float64(st.QueryCiphertexts)
}

// LevelsPerOperand is LevelMatrices ÷ LevelOperands, 0 before the first
// pass.
func (st ServiceStats) LevelsPerOperand() float64 {
	if st.LevelOperands == 0 {
		return 0
	}
	return float64(st.LevelMatrices) / float64(st.LevelOperands)
}

// MeanQueueWait returns the mean per-pass queue wait.
func (st ServiceStats) MeanQueueWait() time.Duration {
	if st.Requests == 0 {
		return 0
	}
	return st.QueueWait / time.Duration(st.Requests)
}

// MeanBatchWait returns the mean per-query linger in the dynamic
// batcher.
func (st ServiceStats) MeanBatchWait() time.Duration {
	if st.CoalescedQueries == 0 {
		return 0
	}
	return st.BatchWait / time.Duration(st.CoalescedQueries)
}

// Stats snapshots the serving counters.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{
		Requests:         s.requests.Load(),
		Queries:          s.queries.Load(),
		Failures:         s.failures.Load(),
		InFlight:         s.inFlight.Load(),
		QueueWait:        time.Duration(s.queueNS.Load()),
		Queued:           s.queued.Load(),
		Shed:             s.shed.Load(),
		DeadlineRejects:  s.deadlineRejects.Load(),
		PanicsRecovered:  s.panicsRecovered.Load(),
		Latency:          time.Duration(s.latencyNS.Load()),
		Workers:          s.cfg.workers,
		Busy:             time.Duration(s.busyNS.Load()),
		StageTime:        time.Duration(s.stageNS.Load()),
		QueryPlanes:      s.queryPlanes.Load(),
		QueryCiphertexts: s.queryCts.Load(),
		LevelMatrices:    s.levelMats.Load(),
		LevelOperands:    s.levelOps.Load(),
		BatcherPasses:    s.aggPasses.Load(),
		CoalescedQueries: s.aggQueries.Load(),
		BatchWait:        time.Duration(s.aggWaitNS.Load()),
	}
	if den := s.aggFillDen.Load(); den > 0 {
		st.BatchFill = float64(s.aggFillNum.Load()) / float64(den)
	}
	s.mu.RLock()
	if len(s.models) > 0 {
		st.ModelLatency = make(map[string]LatencyStats, len(s.models))
		for name, m := range s.models {
			snap := m.latency.Snapshot()
			st.ModelLatency[name] = LatencyStats{
				Count: snap.Count,
				P50:   snap.Quantile(0.50),
				P95:   snap.Quantile(0.95),
				P99:   snap.Quantile(0.99),
			}
		}
	}
	s.mu.RUnlock()
	return st
}
