package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http/httptest"
	"reflect"
	"time"

	"copse"
	"copse/internal/cluster"
	"copse/internal/synth"
)

// ClusterBench is the machine-readable sharded-serving record emitted
// by copse-bench -clusterjson (BENCH_cluster.json): the same BGV
// query batch classified on one single-node service and through a
// 2-worker gateway/worker cluster (tree-wise shards, encrypted
// vote-sum merge, DESIGN.md §12). BitIdentical witnesses that the
// sharded path reproduces the single-node leaf bits, votes, and
// per-tree labels exactly; the latency columns price the fan-out and
// merge overhead the cluster pays for horizontal scale.
type ClusterBench struct {
	Model   string `json:"model"`
	Trees   int    `json:"trees"`
	Slots   int    `json:"slots"`
	Shards  int    `json:"shards"`
	Workers int    `json:"workers"`
	Queries int    `json:"queries"`
	Rounds  int    `json:"rounds"`
	Seed    uint64 `json:"seed"`
	// BitIdentical is true when every cluster result matched the
	// single-node reference bit for bit (leaf bits, votes, per-tree
	// labels, plurality label).
	BitIdentical bool        `json:"bit_identical"`
	SingleNode   ClusterMode `json:"single_node"`
	Cluster      ClusterMode `json:"cluster"`
	// Per-round mean of the gateway's internal stage timings.
	EncryptMS float64 `json:"encrypt_ms"`
	FanoutMS  float64 `json:"fanout_ms"`
	MergeMS   float64 `json:"merge_ms"`
	DecodeMS  float64 `json:"decode_ms"`
	// OverheadRatio is Cluster.MeanLatencyMS / SingleNode.MeanLatencyMS:
	// the end-to-end price of sharding at this query batch size.
	OverheadRatio float64 `json:"overhead_ratio"`
}

// ClusterMode is the measurement of one serving topology.
type ClusterMode struct {
	QueriesPerSec float64 `json:"queries_per_sec"`
	// MeanLatencyMS is the mean wall time of one full batch round.
	MeanLatencyMS float64 `json:"mean_latency_ms"`
}

// WriteJSON writes the report.
func (c *ClusterBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// clusterRounds is how many times the batch is classified per
// topology; the report averages over them.
const clusterRounds = 3

// ClusterReport benchmarks sharded multi-node serving: it splits a
// 5-tree forest into 2 shards, stages each on its own in-process
// worker (shared seed, so one key set), fronts them with a gateway
// over real HTTP on loopback, and classifies the same query batch
// there and on a single-node reference service. Results must be
// bit-identical; the timings price the fan-out/merge overhead. BGV
// only — the cluster wire protocol ships real ciphertexts.
func ClusterReport(cfg Config) (*ClusterBench, error) {
	cfg = cfg.withDefaults()
	forest, err := synth.Generate(synth.ForestSpec{
		NumFeatures:     3,
		NumLabels:       3,
		Precision:       4,
		MaxDepth:        3,
		BranchesPerTree: []int{5, 3, 6, 3, 4},
		Seed:            cfg.Seed + 50,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: generating cluster forest: %w", err)
	}
	const slots = 1024
	compiled, err := copse.Compile(forest, copse.CompileOptions{Slots: slots})
	if err != nil {
		return nil, fmt.Errorf("experiments: compiling cluster forest: %w", err)
	}
	shards, manifest, err := copse.ShardForest(compiled, 2)
	if err != nil {
		return nil, err
	}

	report := &ClusterBench{
		Model:   "cluster5",
		Trees:   len(forest.Trees),
		Slots:   slots,
		Shards:  manifest.Shards,
		Workers: 2,
		Queries: cfg.Queries,
		Rounds:  clusterRounds,
		Seed:    cfg.Seed,
	}

	rng := rand.New(rand.NewPCG(cfg.Seed, 0xc105))
	batch := make([][]uint64, cfg.Queries)
	for i := range batch {
		batch[i] = randomFeatures(rng, forest.NumFeatures, forest.Precision)
	}

	// Single-node reference: one service holding the unsharded model.
	ref := copse.NewService(
		copse.WithScenario(copse.ScenarioServerModel),
		copse.WithWorkers(defaultWorkers(cfg)),
		copse.WithSeed(cfg.Seed+7),
	)
	defer ref.Close()
	if err := ref.Register("forest", compiled); err != nil {
		return nil, fmt.Errorf("experiments: staging single-node reference: %w", err)
	}
	var want []*copse.Result
	singleStart := time.Now()
	for round := 0; round < clusterRounds; round++ {
		want, err = ref.ClassifyBatch(context.Background(), "forest", batch)
		if err != nil {
			return nil, fmt.Errorf("experiments: single-node classify: %w", err)
		}
	}
	singleElapsed := time.Since(singleStart)

	// 2-worker cluster over loopback HTTP, one shard per worker.
	workers := make([]*cluster.Worker, 2)
	servers := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i := range workers {
		workers[i] = cluster.NewWorker(cluster.WorkerConfig{
			Seed:    cfg.Seed + 11,
			Workers: defaultWorkers(cfg),
		})
		defer workers[i].Close()
		if err := workers[i].AddShard("forest", manifest, shards[i]); err != nil {
			return nil, fmt.Errorf("experiments: staging shard %d: %w", i, err)
		}
		servers[i] = httptest.NewServer(workers[i].Handler())
		defer servers[i].Close()
		urls[i] = servers[i].URL
	}
	gw := cluster.NewGateway(cluster.GatewayConfig{Workers: urls, RequestTimeout: 5 * time.Minute})
	defer gw.Close()
	if err := gw.Refresh(context.Background()); err != nil {
		return nil, fmt.Errorf("experiments: gateway refresh: %w", err)
	}

	report.BitIdentical = true
	var fanout, merge, encrypt, decode time.Duration
	clusterStart := time.Now()
	for round := 0; round < clusterRounds; round++ {
		got, trace, err := gw.Classify(context.Background(), "forest", batch)
		if err != nil {
			return nil, fmt.Errorf("experiments: cluster classify: %w", err)
		}
		encrypt += trace.Encrypt
		fanout += trace.Fanout
		merge += trace.Merge
		decode += trace.Decode
		for i, res := range got {
			if !reflect.DeepEqual(res.LeafBits, want[i].LeafBits) ||
				!reflect.DeepEqual(res.Votes, want[i].Votes) ||
				!reflect.DeepEqual(res.PerTree, want[i].PerTree) ||
				res.Label != want[i].Plurality() {
				report.BitIdentical = false
			}
		}
	}
	clusterElapsed := time.Since(clusterStart)

	total := float64(cfg.Queries * clusterRounds)
	report.SingleNode = ClusterMode{
		QueriesPerSec: total / singleElapsed.Seconds(),
		MeanLatencyMS: float64(singleElapsed.Microseconds()) / 1000 / clusterRounds,
	}
	report.Cluster = ClusterMode{
		QueriesPerSec: total / clusterElapsed.Seconds(),
		MeanLatencyMS: float64(clusterElapsed.Microseconds()) / 1000 / clusterRounds,
	}
	report.EncryptMS = float64(encrypt.Microseconds()) / 1000 / clusterRounds
	report.FanoutMS = float64(fanout.Microseconds()) / 1000 / clusterRounds
	report.MergeMS = float64(merge.Microseconds()) / 1000 / clusterRounds
	report.DecodeMS = float64(decode.Microseconds()) / 1000 / clusterRounds
	if report.SingleNode.MeanLatencyMS > 0 {
		report.OverheadRatio = report.Cluster.MeanLatencyMS / report.SingleNode.MeanLatencyMS
	}
	return report, nil
}
