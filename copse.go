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
// shared backend and answers slot-packed query batches concurrently. The
// compiled model fixes the BGV ring (its slot count) and modulus chain
// (its level plan); the options only choose how to serve it:
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
// The three calls under ClassifyBatch are the steps of the paper's
// Figure 2, each named for the party that takes it:
//
//	query, _ := svc.EncryptQuery("forest", []uint64{3, 5})  // Diane
//	encrypted, _, _ := svc.Classify(ctx, "forest", query)   // Sally
//	result, _ := svc.DecryptResult("forest", encrypted)     // Diane
//	fmt.Println(result.Plurality())
package copse

import (
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
	// PlanInfeasibleError is the refusal of a model without a feasible
	// level plan: Compile's and ShardForest's when the planner finds
	// none, Service.Register's when the stored plan is one its op
	// program cannot run under (a stale or hand-edited artifact) — an
	// error instead of a garbage label.
	PlanInfeasibleError = core.PlanInfeasibleError
	// QueryLayoutError is Service.Classify's rejection of a query laid
	// out for something else than the model it is handed to — features
	// packed for another model's slots, or a bit-plane layout that names
	// no program the model staged (a query packed by hand, or for another
	// batch fill than it claims): a typed error before any homomorphic
	// op, instead of a garbage label.
	QueryLayoutError = core.QueryLayoutError
	// FeatureError is the rejection of a feature vector the model cannot
	// take — the wrong number of features, or a value past its precision —
	// before anything is encrypted.
	FeatureError = core.FeatureError
	// EmptyBatchError is the rejection of a batch with no feature vector
	// in it, before anything is encrypted.
	EmptyBatchError = core.EmptyBatchError
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
	// parent's Meta, whose level plan is the key contract every worker
	// shares and through which a gateway encrypts queries and decodes
	// merged results.
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

// ShuffledCodebook is the public decoding table of one shuffled query:
// the slot→label map the data owner tallies votes through (paper
// §7.2.2). Every Result of a shuffled pass carries its own
// (Result.Codebook).
type ShuffledCodebook = core.ShuffledCodebook

// EncryptedResult is Sally's output of one pass: the encrypted N-hot
// leaf bitvector of every packed query. Under WithShuffle each query's
// leaf slots are permuted and the matching per-query codebooks ride
// along, onto the decoded Results. It records the registry entry that
// produced it, and decodes under that entry's name only.
type EncryptedResult struct {
	op        he.Operand
	batch     int
	codebooks []*core.ShuffledCodebook // nil unless the pass was shuffled
	model     *servedModel
}

// releaseQuery hands q's planes back to the backend's pool (he.Release).
// A serving path that made the query for a request of its own calls it
// once the pass has read the planes; queries the three-call API returns
// stay the caller's and are never released here.
func releaseQuery(q *Query) {
	for _, op := range q.Bits {
		he.Release(op.Ct)
	}
}

// Operand returns the packed result carrier — the hook the cluster data
// plane uses to put a worker's shard result on the wire.
func (r *EncryptedResult) Operand() he.Operand { return r.op }
