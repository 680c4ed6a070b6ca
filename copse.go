// Package copse is a vectorized secure decision-forest inference system:
// a Go implementation of COPSE (Malik, Singhal, Gottfried, Kulkarni:
// "Vectorized Secure Evaluation of Decision Forests", PLDI 2021).
//
// COPSE evaluates an entire decision forest under fully homomorphic
// encryption as four packed (SIMD) stages — compare, reshuffle,
// level-process, accumulate — instead of a sequential tree walk. The
// model owner (Maurice) compiles and encrypts the forest; the data owner
// (Diane) encrypts feature vectors; an untrusted server (Sally) runs the
// inference without learning either.
//
// The serving flow — a Service stages one or more compiled models onto a
// shared backend and answers slot-packed query batches concurrently:
//
//	forest, _ := copse.ParseModel(r)                    // or copse.Train(...)
//	compiled, _ := copse.Compile(forest, copse.CompileOptions{Slots: 1024})
//	svc := copse.NewService(
//		copse.WithBackend(copse.BackendBGV),
//		copse.WithScenario(copse.ScenarioOffload),
//	)
//	_ = svc.Register("forest", compiled)
//	results, _ := svc.ClassifyBatch(ctx, "forest", [][]uint64{{3, 5}, {7, 1}})
//	fmt.Println(results[0].Plurality())
//
// The three-party view of the paper's Figure 2 remains available as a
// thin wrapper for single-model, per-party workflows:
//
//	sys, _ := copse.NewSystem(compiled, copse.SystemConfig{
//		Backend:  copse.BackendBGV,
//		Scenario: copse.ScenarioOffload,
//	})
//	query, _ := sys.Diane.EncryptQuery([]uint64{3, 5})
//	encrypted, _, _ := sys.Sally.Classify(query)
//	result, _ := sys.Diane.DecryptResult(encrypted)
//	fmt.Println(result.Plurality())
package copse

import (
	"context"
	"fmt"
	"io"

	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/model"
)

// Model types and serialization, re-exported from the model package.
type (
	// Forest is a decision-forest model.
	Forest = model.Forest
	// Tree is a single decision tree.
	Tree = model.Tree
	// Node is a tree node.
	Node = model.Node
)

// ParseModel reads a forest in the COPSE text format.
func ParseModel(r io.Reader) (*Forest, error) { return model.Parse(r) }

// ParseModelString parses a forest from a string.
func ParseModelString(s string) (*Forest, error) { return model.ParseString(s) }

// FormatModel writes a forest in the COPSE text format.
func FormatModel(w io.Writer, f *Forest) error { return model.Format(w, f) }

// ExampleForest returns the paper's Figure 1 running example.
func ExampleForest() *Forest { return model.Figure1() }

// Compiler types, re-exported from the core package.
type (
	// CompileOptions controls staging.
	CompileOptions = core.Options
	// Compiled is a staged model.
	Compiled = core.Compiled
	// Meta holds a compiled model's structural parameters.
	Meta = core.Meta
	// Query is a prepared (usually encrypted) feature vector.
	Query = core.Query
	// Result is a decoded classification.
	Result = core.Result
	// Trace is the per-stage timing breakdown of one inference.
	Trace = core.Trace
	// Scenario is a party configuration (paper §7.1).
	Scenario = core.Scenario
	// Party is a notional protocol party.
	Party = core.Party
	// Leakage describes what a party learns in a scenario.
	Leakage = core.Leakage
	// PlanInfeasibleError is Service.Register's rejection of a model whose
	// level plan its op program cannot run under (a stale or hand-edited
	// artifact): a load-time error instead of a garbage label.
	PlanInfeasibleError = core.PlanInfeasibleError
	// QueryLayoutError is Service.Classify's rejection of a query laid
	// out for something else than the model it is handed to — features
	// packed for another model's slots, or a bit-plane layout that names
	// no program the model staged (a query packed by hand, or for another
	// batch fill than it claims): a typed error before any homomorphic
	// op, instead of a garbage label.
	QueryLayoutError = core.QueryLayoutError
)

// Party configurations (see paper §7.1 and Tables 3–4).
const (
	// ScenarioOffload: model and data owned by the same party, compute
	// offloaded to an untrusted server (model and features encrypted).
	ScenarioOffload = core.ScenarioOffload
	// ScenarioServerModel: the server owns the model in plaintext;
	// clients send encrypted features.
	ScenarioServerModel = core.ScenarioServerModel
	// ScenarioClientEval: the client evaluates an encrypted model on
	// its own plaintext features.
	ScenarioClientEval = core.ScenarioClientEval
	// ScenarioThreeParty and the collusion variants model the
	// three-physical-party analysis of Table 4.
	ScenarioThreeParty = core.ScenarioThreeParty
	ScenarioColludeSM  = core.ScenarioColludeSM
	ScenarioColludeSD  = core.ScenarioColludeSD
)

// Notional parties.
const (
	PartyServer     = core.PartyServer
	PartyModelOwner = core.PartyModelOwner
	PartyDataOwner  = core.PartyDataOwner
)

// Revealed returns the leakage-table entry for a scenario and party.
func Revealed(s Scenario, p Party) Leakage { return core.Revealed(s, p) }

// Compile stages a forest into its vectorizable form: the padded
// threshold vector, reshuffling matrix, level matrices and masks of
// §4.2, plus the rotation-key set and parameter recommendation.
func Compile(f *Forest, opts CompileOptions) (*Compiled, error) {
	return core.Compile(f, opts)
}

// WriteArtifact serializes a compiled model.
func WriteArtifact(w io.Writer, c *Compiled) error { return core.WriteArtifact(w, c) }

// ReadArtifact deserializes a compiled model.
func ReadArtifact(r io.Reader) (*Compiled, error) { return core.ReadArtifact(r) }

// Forest sharding, re-exported from the core package (DESIGN.md §12).
type (
	// ShardInfo locates one shard inside its parent forest.
	ShardInfo = core.ShardInfo
	// ShardManifest is the merge manifest of a sharded forest: the
	// shared key contract (chain length, rotation-step union) plus the
	// global Meta and per-shard ranges a gateway merges through.
	ShardManifest = core.ShardManifest
)

// ShardForest splits a compiled forest into self-contained per-shard
// artifacts (tree-wise, balanced by branch count) plus the merge
// manifest. Each shard keeps the parent's packing layout, so one
// encrypted query batch serves every shard and the per-shard results
// occupy disjoint leaf-slot supports — a gateway merges them with
// plain ciphertext additions and the sum is bit-identical to the
// unsharded classification.
func ShardForest(c *Compiled, shards int) ([]*Compiled, *ShardManifest, error) {
	return core.ShardForest(c, shards)
}

// WriteManifest serializes a shard manifest (JSON).
func WriteManifest(w io.Writer, m *ShardManifest) error { return m.WriteManifest(w) }

// ReadManifest deserializes a shard manifest.
func ReadManifest(r io.Reader) (*ShardManifest, error) { return core.ReadManifest(r) }

// GenerateProgram emits a standalone Go program specialized to the
// compiled model — the staging-compiler output of the paper's §5
// (there it is C++ linking the runtime; here it is Go driving this
// package's API).
func GenerateProgram(w io.Writer, c *Compiled) error { return core.GenerateProgram(w, c) }

// BackendKind selects the homomorphic backend.
type BackendKind int

const (
	// BackendBGV runs on real RLWE/BGV ciphertexts.
	BackendBGV BackendKind = iota
	// BackendClear runs the identical dataflow on a noise-free
	// reference backend: exact semantics, no cryptography. Useful for
	// testing and for algorithmic scaling studies.
	BackendClear
)

// SecurityPreset selects the BGV lattice dimension.
type SecurityPreset int

const (
	// SecurityTest: N=2048 (1024 slots). Functionally faithful;
	// dimension far below 128-bit security. Fast.
	SecurityTest SecurityPreset = iota
	// SecurityDemo: N=4096 (2048 slots), fits the largest models.
	SecurityDemo
	// Security128: N=32768, matching the paper's security parameter at
	// COPSE's depths. Very slow in pure Go.
	Security128
)

// ParseBackend maps a CLI/config string ("bgv", "clear") to a backend
// kind.
func ParseBackend(s string) (BackendKind, error) {
	switch s {
	case "bgv":
		return BackendBGV, nil
	case "clear":
		return BackendClear, nil
	}
	return 0, fmt.Errorf("copse: unknown backend %q (want bgv or clear)", s)
}

// ParseScenario maps a CLI/config string ("offload", "servermodel",
// "clienteval", "threeparty") to a party configuration.
func ParseScenario(s string) (Scenario, error) {
	switch s {
	case "offload":
		return ScenarioOffload, nil
	case "servermodel":
		return ScenarioServerModel, nil
	case "clienteval":
		return ScenarioClientEval, nil
	case "threeparty":
		return ScenarioThreeParty, nil
	}
	return 0, fmt.Errorf("copse: unknown scenario %q (want offload, servermodel, clienteval or threeparty)", s)
}

// SecurityForSlots returns the BGV preset whose packing width matches a
// model staged for the given slot count — the lookup every CLI that
// loads an artifact needs before building a service.
func SecurityForSlots(slots int) (SecurityPreset, error) {
	switch slots {
	case 1024:
		return SecurityTest, nil
	case 2048:
		return SecurityDemo, nil
	case 16384:
		return Security128, nil
	}
	return 0, fmt.Errorf("copse: no BGV preset with %d slots; recompile with Slots 1024, 2048 or 16384", slots)
}

// ChainLevels is the modulus-chain length a BGV service serving c under
// scenario s builds when c is the first model it registers — the one a
// multi-model server must register first is the model for which it is
// largest (see Service.Register).
func ChainLevels(c *Compiled, s Scenario) (int, error) {
	encModel, _, err := scenarioEncryption(s)
	if err != nil {
		return 0, err
	}
	return c.Meta.ChainLevels(encModel), nil
}

// SystemConfig configures NewSystem.
type SystemConfig struct {
	Backend  BackendKind
	Scenario Scenario
	Security SecurityPreset
	// Workers is the number of goroutines each classification pass runs
	// its ops on (see WithWorkers): 0 = GOMAXPROCS, 1 = sequential.
	Workers int
	// Shuffle enables result shuffling (paper §7.2.2) on every
	// classification pass: per-query permuted results decoded through
	// per-query codebooks (see WithShuffle). Models must be compiled with
	// CompileOptions.PlanShuffle.
	Shuffle bool
	// MeasureNoise records decrypt-side noise-budget margins at every
	// stage boundary in each Trace (see WithNoiseMeasurement); a
	// benchmarking knob.
	MeasureNoise bool
	// Batch configures the dynamic batcher (see WithBatchPolicy): a
	// non-zero Window lets concurrent Classify calls coalesce into
	// shared slot-packed passes.
	Batch BatchPolicy
	// Levels overrides the compiler's recommended BGV chain length.
	Levels int
	// Seed, when non-zero, makes key generation and encryption
	// deterministic (tests and reproducible experiments only). With
	// Shuffle it also makes every shuffle permutation predictable from
	// the seed — see WithSeed.
	Seed uint64
}

// System wires the three parties around a shared backend, mirroring the
// workflow of Figure 2. It is a thin single-model view over Service —
// the party split (Maurice/Diane/Sally) names who may call what, while
// the service underneath does the staging, batching and bookkeeping.
type System struct {
	Maurice *ModelOwner
	Diane   *DataOwner
	Sally   *Server

	svc *Service
}

// systemModel is the registry name a System's single model serves under.
const systemModel = "default"

// ModelOwner (Maurice) holds the compiled model and knows its private
// structure.
type ModelOwner struct {
	Compiled *Compiled
}

// DataOwner (Diane) prepares queries and decrypts results.
type DataOwner struct {
	sys *System
}

// Server (Sally) executes inference over operands it cannot read.
type Server struct {
	sys *System
}

// NewSystem instantiates the parties for a compiled model: it builds a
// single-model Service per the config (generating keys for exactly the
// rotations the compiler emitted, encrypting or encoding the model per
// the scenario) and returns the wired parties.
func NewSystem(c *Compiled, cfg SystemConfig) (*System, error) {
	svc := NewService(
		WithBackend(cfg.Backend),
		WithScenario(cfg.Scenario),
		WithSecurity(cfg.Security),
		WithWorkers(cfg.Workers),
		WithLevels(cfg.Levels),
		WithSeed(cfg.Seed),
		WithShuffle(cfg.Shuffle),
		WithNoiseMeasurement(cfg.MeasureNoise),
		WithBatchPolicy(cfg.Batch),
	)
	if err := svc.Register(systemModel, c); err != nil {
		return nil, err
	}
	sys := &System{svc: svc}
	sys.Maurice = &ModelOwner{Compiled: c}
	sys.Diane = &DataOwner{sys: sys}
	sys.Sally = &Server{sys: sys}
	return sys, nil
}

// Service exposes the serving layer a System wraps, for callers that
// started with the three-party API and want the batched/concurrent
// surface (registry, stats, context-aware classify).
func (s *System) Service() *Service { return s.svc }

// scenarioEncryption maps a scenario to (model encrypted, features
// encrypted).
func scenarioEncryption(s Scenario) (encModel, encFeats bool, err error) {
	switch s {
	case ScenarioOffload, ScenarioThreeParty, ScenarioColludeSM, ScenarioColludeSD:
		return true, true, nil
	case ScenarioServerModel:
		return false, true, nil
	case ScenarioClientEval:
		return true, false, nil
	}
	return false, false, fmt.Errorf("copse: unknown scenario %d", s)
}

// Backend exposes the underlying homomorphic backend (for op counting
// and diagnostics).
func (s *System) Backend() he.Backend { return s.svc.Backend() }

// EncryptQuery prepares a quantized feature vector per the scenario:
// replicated to the model's maximum multiplicity K, padded,
// bit-transposed, and encrypted (left plaintext in ScenarioClientEval).
func (d *DataOwner) EncryptQuery(features []uint64) (*Query, error) {
	return d.sys.svc.EncryptQuery(systemModel, features)
}

// EncryptQueryBatch slot-packs up to Meta.BatchCapacity feature vectors
// into one encrypted query set; one Classify call answers all of them.
func (d *DataOwner) EncryptQueryBatch(batch [][]uint64) (*Query, error) {
	return d.sys.svc.EncryptQueryBatch(systemModel, batch)
}

// ShuffledCodebook is the public decoding table of one shuffled query:
// the slot→label map the data owner tallies votes through (paper
// §7.2.2). Returned per packed query by the shuffled serving path.
type ShuffledCodebook = core.ShuffledCodebook

// EncryptedResult is Sally's output: the encrypted N-hot leaf
// bitvector, one per packed query. Under WithShuffle each query's leaf
// slots are permuted and the matching per-query codebooks ride along.
// A request larger than the model's batch capacity classifies as a
// chain of passes whose results ride in one EncryptedResult, decoded
// in packing order by DecryptResultBatch.
type EncryptedResult struct {
	segs []resultSeg
}

// resultSeg is one homomorphic pass's worth of results.
type resultSeg struct {
	op    he.Operand
	batch int
	// capacity is the query capacity of the layout the pass ran under
	// (Meta.QueryCapacity of the query's plane packing): what decoding
	// may index.
	capacity  int
	codebooks []*core.ShuffledCodebook // nil unless the pass was shuffled
}

// Codebooks returns the per-query shuffled codebooks of a shuffled
// classification, in packing order across every pass (nil for
// unshuffled passes). Together with the decrypted slots these are all
// the data owner needs to tally votes — and all they can learn: leaf
// order and tree boundaries stay hidden.
func (r *EncryptedResult) Codebooks() []*ShuffledCodebook {
	if len(r.segs) == 1 {
		return r.segs[0].codebooks
	}
	var out []*ShuffledCodebook
	for _, seg := range r.segs {
		if seg.codebooks == nil {
			return nil
		}
		out = append(out, seg.codebooks...)
	}
	return out
}

// Operand returns the packed result carrier of a single-pass
// classification together with its batch count — the hook the cluster
// data plane uses to put a worker's shard result on the wire. A
// chained multi-pass result has no single carrier and returns an
// error (cluster requests are capped at one pass).
func (r *EncryptedResult) Operand() (he.Operand, int, error) {
	if len(r.segs) != 1 {
		return he.Operand{}, 0, fmt.Errorf("copse: result spans %d passes, no single operand", len(r.segs))
	}
	return r.segs[0].op, r.segs[0].batch, nil
}

// Classify runs Algorithm 1 on an encrypted query (or slot-packed
// batch; one pass classifies every packed query).
func (s *Server) Classify(q *Query) (*EncryptedResult, *Trace, error) {
	return s.sys.svc.Classify(context.Background(), systemModel, q)
}

// ClassifyCtx is Classify with cancellation between pipeline stages.
func (s *Server) ClassifyCtx(ctx context.Context, q *Query) (*EncryptedResult, *Trace, error) {
	return s.sys.svc.Classify(ctx, systemModel, q)
}

// ServerView reports what the server can infer from artifact shapes
// alone (the executable form of Table 3's leakage).
func (s *Server) ServerView() core.ServerView {
	view, _ := s.sys.svc.ServerView(systemModel)
	return view
}

// DecryptResult decrypts and decodes a classification (batch entry 0).
func (d *DataOwner) DecryptResult(r *EncryptedResult) (*Result, error) {
	return d.sys.svc.DecryptResult(systemModel, r)
}

// DecryptResultBatch decrypts one classification pass and decodes every
// packed query's result, in packing order.
func (d *DataOwner) DecryptResultBatch(r *EncryptedResult) ([]*Result, error) {
	return d.sys.svc.DecryptResultBatch(systemModel, r)
}

// Meta exposes the compiled model's public parameters.
func (s *Server) Meta() *Meta {
	m, err := s.sys.svc.Meta(systemModel)
	if err != nil {
		return nil
	}
	return m
}
