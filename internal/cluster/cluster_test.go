package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"copse"
	"copse/internal/bgv"
	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/model"
	"copse/internal/ring"
	"copse/internal/synth"
)

// clusterForest builds a forest with enough trees to split.
func clusterForest(t *testing.T, seed uint64) *model.Forest {
	t.Helper()
	f, err := synth.Generate(synth.ForestSpec{
		NumFeatures:     3,
		NumLabels:       3,
		Precision:       4,
		MaxDepth:        3,
		BranchesPerTree: []int{5, 3, 6, 3, 4},
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// testCluster is a 2-worker in-process cluster plus the gateway
// fronting it.
type testCluster struct {
	workers []*Worker
	servers []*httptest.Server
	gateway *Gateway
}

func (tc *testCluster) close() {
	if tc.gateway != nil {
		tc.gateway.Close()
	}
	for _, s := range tc.servers {
		s.Close()
	}
	for _, w := range tc.workers {
		w.Close()
	}
}

// startCluster stages each shards[i] list on its own worker and fronts
// them with a refreshed gateway.
func startCluster(t *testing.T, seed uint64, stage func(workers []*Worker)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{Seed: seed, Service: []copse.Option{copse.WithMaxInFlight(2)}})
		tc.workers = append(tc.workers, w)
	}
	stage(tc.workers)
	var urls []string
	for _, w := range tc.workers {
		srv := httptest.NewServer(w.Handler())
		tc.servers = append(tc.servers, srv)
		urls = append(urls, srv.URL)
	}
	// Generous round-trip budget: BGV passes run ~10× slower under the
	// race detector, and a premature client timeout would read as a
	// routing failure.
	tc.gateway = NewGateway(GatewayConfig{Workers: urls, RequestTimeout: 10 * time.Minute})
	if err := tc.gateway.Refresh(context.Background()); err != nil {
		tc.close()
		t.Fatalf("gateway refresh: %v", err)
	}
	return tc
}

// TestClusterEndToEnd checks the tentpole contract: a 2-worker sharded
// BGV classification is bit-identical to single-node serving — same
// leaf bits, votes, and per-tree labels — through both the Go API and
// the HTTP surface.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV cluster round trip is slow")
	}
	f := clusterForest(t, 51)
	c, err := core.Compile(f, core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}

	tc := startCluster(t, 61, func(workers []*Worker) {
		for i, s := range shards {
			if err := workers[i].AddShard("forest", manifest, s); err != nil {
				t.Fatalf("worker %d AddShard: %v", i, err)
			}
		}
	})
	defer tc.close()

	if fp0, fp1 := tc.workers[0].Fingerprint(), tc.workers[1].Fingerprint(); fp0 != fp1 || fp0 == "" {
		t.Fatalf("seeded workers derived different key sets: %q vs %q", fp0, fp1)
	}

	// Single-node reference on its own (differently-seeded) service:
	// leaf bits are determined by the model and queries, not the keys.
	ref := copse.NewService(copse.WithScenario(copse.ScenarioServerModel), copse.WithSeed(7))
	defer ref.Close()
	if err := ref.Register("forest", c); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(3, 4))
	limit := uint64(1) << uint(c.Meta.Precision)
	batch := make([][]uint64, 3)
	for i := range batch {
		q := make([]uint64, c.Meta.NumFeatures)
		for j := range q {
			q[j] = rng.Uint64N(limit)
		}
		batch[i] = q
	}
	want, err := ref.ClassifyBatch(context.Background(), "forest", batch)
	if err != nil {
		t.Fatal(err)
	}

	got, trace, err := tc.gateway.Classify(context.Background(), "forest", batch)
	if err != nil {
		t.Fatalf("gateway classify: %v", err)
	}
	if len(got) != len(batch) || trace.Shards != 2 || trace.Passes != 1 {
		t.Fatalf("got %d results, %d shards, %d passes", len(got), trace.Shards, trace.Passes)
	}
	for i, res := range got {
		if !reflect.DeepEqual(res.LeafBits, want[i].LeafBits) {
			t.Errorf("query %d: sharded leaf bits %v != single-node %v", i, res.LeafBits, want[i].LeafBits)
		}
		if !reflect.DeepEqual(res.Votes, want[i].Votes) || !reflect.DeepEqual(res.PerTree, want[i].PerTree) {
			t.Errorf("query %d: votes/perTree diverge: %v/%v vs %v/%v",
				i, res.Votes, res.PerTree, want[i].Votes, want[i].PerTree)
		}
		if res.Label != want[i].Plurality() {
			t.Errorf("query %d: label %d, want %d", i, res.Label, want[i].Plurality())
		}
	}

	// Same through the HTTP surface.
	gw := httptest.NewServer(tc.gateway.Handler())
	defer gw.Close()
	body, _ := json.Marshal(ClassifyRequest{Model: "forest", Queries: batch})
	resp, err := http.Post(gw.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway HTTP classify: %s", resp.Status)
	}
	var httpResp ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&httpResp); err != nil {
		t.Fatal(err)
	}
	if len(httpResp.Results) != len(batch) || httpResp.Shards != 2 {
		t.Fatalf("HTTP response: %d results, %d shards", len(httpResp.Results), httpResp.Shards)
	}
	for i, res := range httpResp.Results {
		if !reflect.DeepEqual(res.LeafBits, want[i].LeafBits) {
			t.Errorf("HTTP query %d: leaf bits diverge", i)
		}
	}

	// The shard-aware inventory reports full coverage.
	models := tc.gateway.Models()
	if len(models) != 1 || !models[0].Available || models[0].Shards != 2 {
		t.Fatalf("gateway models: %+v", models)
	}
	// Worker stats carry per-model latency histograms.
	st := tc.workers[0].Service().Stats()
	if lat, ok := st.ModelLatency["forest/0"]; !ok || lat.Count == 0 || lat.P99 < lat.P50 {
		t.Errorf("worker latency stats: %+v", st.ModelLatency)
	}
}

// TestWorkerAddShardUnderTraffic stages shards on live workers while
// classify requests for a served model run through the gateway: each
// worker takes a replica of the other's shard of that model, then both
// shards of a second model. Under -race it holds the data plane's shard
// lookup to the lock AddShard writes the shard map under: one request is
// held in the frame decoder, after its lookup, for the whole staging, so
// an unlocked lookup races with the write on every run. The ring's
// use-after-release checks are on, so the worker's and the gateway's
// releases of the ciphertexts they made answer to the same oracle as the
// executor's: every answer must stay the unstaged cluster's.
func TestWorkerAddShardUnderTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV cluster round trip is slow")
	}
	ring.SetPoolChecks(true)
	defer ring.SetPoolChecks(false)
	f := clusterForest(t, 54)
	c, err := core.Compile(f, core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 64, func(workers []*Worker) {
		for i, s := range shards {
			if err := workers[i].AddShard("forest", manifest, s); err != nil {
				t.Fatalf("worker %d AddShard: %v", i, err)
			}
		}
	})
	defer tc.close()

	query := [][]uint64{{3, 9, 14}}
	want, _, err := tc.gateway.Classify(context.Background(), "forest", query)
	if err != nil {
		t.Fatal(err)
	}
	votes := make([]int, len(f.Labels))
	for _, label := range f.Classify(query[0]) {
		votes[label]++
	}
	if !reflect.DeepEqual(want[0].Votes, votes) {
		t.Fatalf("votes %v, forest says %v", want[0].Votes, votes)
	}
	// A data-plane request parked in the frame decoder: it looks its shard
	// up and then waits for a body that comes only after the staging. The
	// test waits out the lookup with a sleep, not a signal: a signal from
	// the handler would order its lookup before the staging for the race
	// detector, and hide the race this test is for.
	body := &heldBody{reading: make(chan struct{}), release: make(chan struct{})}
	req, err := http.NewRequest(http.MethodPost, tc.servers[0].URL+"/v1/cluster/classify?model=forest&shard=0&batch=1", body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = 1 << 20
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-body.reading
	time.Sleep(300 * time.Millisecond)

	served := make(chan error)
	stop := make(chan struct{})
	go func() {
		defer close(served)
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, _, err := tc.gateway.Classify(context.Background(), "forest", query)
			if err == nil && !reflect.DeepEqual(got[0].Votes, want[0].Votes) {
				err = fmt.Errorf("votes %v, want %v", got[0].Votes, want[0].Votes)
			}
			served <- err
		}
	}()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	for i, w := range tc.workers {
		if err := w.AddShard("forest", manifest, shards[1-i]); err != nil {
			t.Fatalf("worker %d replica: %v", i, err)
		}
		if err := w.AddShard("second", manifest, shards[i]); err != nil {
			t.Fatalf("worker %d second model: %v", i, err)
		}
	}
	close(body.release)
	<-parked
	for range 2 {
		if err := <-served; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	for err := range served {
		if err != nil {
			t.Error(err)
		}
	}
	if err := tc.gateway.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, _, err := tc.gateway.Classify(context.Background(), "second", query); err != nil || !reflect.DeepEqual(got[0].Votes, want[0].Votes) {
		t.Errorf("second model: %v, %v; want votes %v", got, err, want[0].Votes)
	}
}

// TestWorkerRefusesForeignRing posts data-plane frames whose polynomials
// this worker's ring cannot hold — as many limbs as the pool's row lists
// have room for, over half the ring degree or over the full one — and
// checks each fails its own request alone: answered 400, none of its
// rows on the row pool later passes draw from, and the requests that
// follow still classify exactly.
func TestWorkerRefusesForeignRing(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV cluster round trip is slow")
	}
	ring.SetPoolChecks(true)
	defer ring.SetPoolChecks(false)
	f := clusterForest(t, 55)
	c, err := core.Compile(f, core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 65, func(workers []*Worker) {
		for i, s := range shards {
			if err := workers[i].AddShard("forest", manifest, s); err != nil {
				t.Fatalf("worker %d AddShard: %v", i, err)
			}
		}
	})
	defer tc.close()

	query := [][]uint64{{3, 9, 14}}
	votes := make([]int, len(f.Labels))
	for _, label := range f.Classify(query[0]) {
		votes[label]++
	}
	classify := func() {
		t.Helper()
		got, _, err := tc.gateway.Classify(context.Background(), "forest", query)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0].Votes, votes) {
			t.Fatalf("votes %v, forest says %v", got[0].Votes, votes)
		}
	}
	classify()

	w := tc.workers[0]
	w.mu.RLock()
	rc := w.backend.Parameters().RingCtx
	w.mu.RUnlock()
	width := rc.MaxLevel() + 1 + ring.DigitPrimes + 1
	gm := &manifest.Meta
	for _, n := range []int{rc.N / 2, rc.N} {
		wcs := make([]WireCiphertext, gm.QueryCiphertexts(gm.PlanesPerCiphertext(1)))
		for i := range wcs {
			ct := &bgv.Ciphertext{C: make([]*ring.Poly, 2)}
			for j := range ct.C {
				p := &ring.Poly{Coeffs: make([][]uint64, width)}
				for k := range p.Coeffs {
					p.Coeffs[k] = make([]uint64, n)
				}
				ct.C[j] = p
			}
			wcs[i] = WireCiphertext{Ct: ct}
		}
		var frame bytes.Buffer
		if err := EncodeCiphertexts(&frame, wcs); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(tc.servers[0].URL+"/v1/cluster/classify?model=forest&shard=0&batch=1",
			"application/octet-stream", &frame)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%d limbs of degree %d: status %d, want 400", width, n, resp.StatusCode)
		}
		// The pool hands rows out last in, first out: what the request gave
		// back is on top, so the next polynomials drawn show it.
		var drawn []*ring.Poly
		for range 2 * len(wcs) * width {
			p := rc.GetPoly(0)
			if len(p.Coeffs[0]) != rc.N {
				t.Fatalf("after %d limbs of degree %d the pool hands out a %d-word row, want %d",
					width, n, len(p.Coeffs[0]), rc.N)
			}
			drawn = append(drawn, p)
		}
		rc.PutPolys(drawn)
		for range 3 {
			classify()
		}
	}
}

// heldBody is a request body whose first read signals reading and then
// fails once release is closed.
type heldBody struct {
	reading, release chan struct{}
	once             sync.Once
}

func (b *heldBody) Read([]byte) (int, error) {
	b.once.Do(func() { close(b.reading) })
	<-b.release
	return 0, io.ErrUnexpectedEOF
}

// TestClusterDegradation checks the failure contract: a dead worker
// yields a typed error mid-request (not a hang), takes exactly the
// models it exclusively holds out of /v1/models, and replicated shards
// keep serving through holder retry.
func TestClusterDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV cluster round trip is slow")
	}
	f := clusterForest(t, 52)
	c, err := core.Compile(f, core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	wide, wideManifest, err := core.ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	solo, soloManifest, err := core.ShardForest(c, 1)
	if err != nil {
		t.Fatal(err)
	}

	tc := startCluster(t, 62, func(workers []*Worker) {
		// "wide" spans both workers; "solo" lives on worker 0 only;
		// "both" is a 1-shard forest replicated on both workers.
		if err := workers[0].AddShard("wide", wideManifest, wide[0]); err != nil {
			t.Fatal(err)
		}
		if err := workers[1].AddShard("wide", wideManifest, wide[1]); err != nil {
			t.Fatal(err)
		}
		if err := workers[0].AddShard("solo", soloManifest, solo[0]); err != nil {
			t.Fatal(err)
		}
		for i := range workers {
			if err := workers[i].AddShard("both", soloManifest, solo[0]); err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		}
	})
	defer tc.close()

	query := [][]uint64{{3, 9, 14}}
	for _, name := range []string{"wide", "solo", "both"} {
		if _, _, err := tc.gateway.Classify(context.Background(), name, query); err != nil {
			t.Fatalf("healthy cluster: classify %q: %v", name, err)
		}
	}

	// Kill worker 1 without telling the gateway: the next "wide"
	// request hits the dead holder mid-request.
	tc.servers[1].Close()
	_, _, err = tc.gateway.Classify(context.Background(), "wide", query)
	var shardErr *ShardError
	if !errors.As(err, &shardErr) {
		t.Fatalf("classify against dead worker: got %v, want *ShardError", err)
	}
	if shardErr.Model != "wide" || shardErr.Shard != 1 {
		t.Errorf("shard error names %q/%d, want wide/1", shardErr.Model, shardErr.Shard)
	}

	// The data-path failure marked the worker down: "wide" is now
	// unavailable with shard 1 missing, "solo" keeps serving, and the
	// replicated "both" survives via its remaining holder.
	byName := map[string]GatewayModel{}
	for _, m := range tc.gateway.Models() {
		byName[m.Name] = m
	}
	if m := byName["wide"]; m.Available || !reflect.DeepEqual(m.MissingShards, []int{1}) {
		t.Errorf("wide after worker death: %+v", m)
	}
	if m := byName["solo"]; !m.Available {
		t.Errorf("solo after worker death: %+v", m)
	}
	if m := byName["both"]; !m.Available {
		t.Errorf("both after worker death: %+v", m)
	}
	if _, _, err := tc.gateway.Classify(context.Background(), "solo", query); err != nil {
		t.Errorf("solo classify after worker death: %v", err)
	}
	if _, _, err := tc.gateway.Classify(context.Background(), "both", query); err != nil {
		t.Errorf("replicated classify after worker death: %v", err)
	}

	// An unavailable model fails with the typed error, immediately.
	_, _, err = tc.gateway.Classify(context.Background(), "wide", query)
	var unavailable *ModelUnavailableError
	if !errors.As(err, &unavailable) {
		t.Fatalf("unavailable model: got %v, want *ModelUnavailableError", err)
	}

	// A probe refresh against the dead worker keeps the same view.
	if err := tc.gateway.Refresh(context.Background()); err != nil {
		t.Logf("refresh with dead worker (expected partial): %v", err)
	}
	for _, m := range tc.gateway.Models() {
		if m.Name == "wide" && m.Available {
			t.Errorf("wide available again after refresh against dead worker")
		}
	}
}

// TestGatewayTriesRecoveringHolderFirst pins the trial order of the
// gateway's holder calls: with one shard on two holders, A's breaker open
// past its cooldown and B's closed, a request sends its shard call to A
// first, so live traffic re-admits a recovering worker. A success closes
// A's breaker; a 500 from A fails the same call over to B, which answers,
// and re-opens A's breaker.
func TestGatewayTriesRecoveringHolderFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV cluster round trip is slow")
	}
	f := clusterForest(t, 53)
	c, err := core.Compile(f, core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		calls []string // holders of the shard calls, in order
		failA bool     // A answers its shard calls 500
	)
	var servers []*httptest.Server
	for _, name := range []string{"B", "A"} {
		w := NewWorker(WorkerConfig{Seed: 63})
		defer w.Close()
		if err := w.AddShard("forest", manifest, shards[0]); err != nil {
			t.Fatalf("worker %s: %v", name, err)
		}
		h := w.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cluster/classify" {
				mu.Lock()
				calls = append(calls, name)
				fail := failA && name == "A"
				mu.Unlock()
				if fail {
					http.Error(rw, "injected", http.StatusInternalServerError)
					return
				}
			}
			h.ServeHTTP(rw, r)
		}))
		defer srv.Close()
		servers = append(servers, srv)
	}
	urlA := servers[1].URL
	gw := NewGateway(GatewayConfig{
		Workers:        []string{servers[0].URL, urlA},
		RequestTimeout: 10 * time.Minute,
		ProbeInterval:  time.Hour,
		Breaker:        BreakerConfig{Cooldown: time.Minute},
	})
	defer gw.Close()
	if err := gw.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	breakerA := gw.breakerFor(urlA)
	openPastCooldown := func() {
		breakerA.mu.Lock()
		breakerA.openLocked(time.Now().Add(-2 * time.Minute))
		breakerA.mu.Unlock()
	}
	query := [][]uint64{{3, 9, 14}}
	classify := func(what string, want []string) {
		t.Helper()
		mu.Lock()
		calls = nil
		mu.Unlock()
		results, _, err := gw.Classify(context.Background(), "forest", query)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := f.Classify(query[0]); !reflect.DeepEqual(results[0].PerTree, got) {
			t.Errorf("%s: per-tree labels %v, the forest says %v", what, results[0].PerTree, got)
		}
		mu.Lock()
		defer mu.Unlock()
		if !reflect.DeepEqual(calls, want) {
			t.Fatalf("%s: shard calls went to %v, want %v", what, calls, want)
		}
	}

	openPastCooldown()
	classify("A due a trial", []string{"A"})
	if state, _ := breakerA.peek(); state != breakerClosed {
		t.Errorf("A's breaker after a successful trial: %v, want closed", state)
	}

	openPastCooldown()
	mu.Lock()
	failA = true
	mu.Unlock()
	retries := gw.retries.Load()
	classify("A due a trial, answering 500", []string{"A", "B"})
	if state, allows := breakerA.peek(); state != breakerOpen || allows {
		t.Errorf("A's breaker after a failed trial: %v (admits %v), want open in a fresh cooldown", state, allows)
	}
	if got := gw.retries.Load() - retries; got != 1 {
		t.Errorf("the failover counted %d retries, want 1", got)
	}
}

// TestGatewayHoldsPublicKeyOnly: the gateway encrypts and adds, so it
// fetches the parameters and public key and nothing else — under 1 MB
// for wide8 at 1024 slots, where the workers' Galois keys are tens of
// megabytes — holds no evaluation key after Refresh, and still answers as
// the forest does. A worker serving its secret key or its switching keys
// is refused with a *KeyScopeError, and the model stays unavailable.
func TestGatewayHoldsPublicKeyOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("stages wide8 on two BGV workers")
	}
	f, err := synth.Generate(synth.ForestSpec{
		Name: "wide8", NumFeatures: 4, NumLabels: 3, Precision: 8, MaxDepth: 5,
		BranchesPerTree: []int{15, 15, 15, 15, 15, 15, 15, 15}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(f, core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 63, func(workers []*Worker) {
		for i, s := range shards {
			if err := workers[i].AddShard("wide8", manifest, s); err != nil {
				t.Fatalf("worker %d AddShard: %v", i, err)
			}
		}
	})
	defer tc.close()

	resp, err := http.Get(tc.servers[0].URL + "/v1/cluster/keys")
	if err != nil {
		t.Fatal(err)
	}
	frame, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) >= 1<<20 {
		t.Errorf("key frame is %d bytes, want under 1 MB", len(frame))
	}
	tc.gateway.mu.RLock()
	backend := tc.gateway.backends[tc.workers[0].Fingerprint()]
	tc.gateway.mu.RUnlock()
	if backend == nil {
		t.Fatal("no gateway backend after Refresh")
	}
	if actual, _ := backend.KeyMaterial(); actual != 0 {
		t.Errorf("gateway holds %d bytes of evaluation keys", actual)
	}
	held, _ := tc.workers[0].Service().Backend().(interface{ KeyMaterial() (int64, int64) }).KeyMaterial()
	t.Logf("key frame %d bytes; worker 0 holds %.1f MB of evaluation keys", len(frame), float64(held)/(1<<20))

	batch := make([][]uint64, 3)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := range batch {
		batch[i] = make([]uint64, f.NumFeatures)
		for j := range batch[i] {
			batch[i][j] = rng.Uint64N(1 << uint(f.Precision))
		}
	}
	got, _, err := tc.gateway.Classify(context.Background(), "wide8", batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range batch {
		if want := f.Classify(q); !reflect.DeepEqual(got[i].PerTree, want) {
			t.Errorf("query %d: gateway perTree %v, forest says %v", i, got[i].PerTree, want)
		}
	}

	// Workers that serve more than encryption needs.
	for _, tcase := range []struct {
		name              string
		secret, switching bool
	}{
		{"secret key", true, false},
		{"switching keys", false, true},
		{"both", true, true},
	} {
		mat := tc.workers[0].Material()
		if !tcase.secret {
			mat.Secret = nil
		}
		if !tcase.switching {
			mat.Keys = nil
		}
		var buf bytes.Buffer
		if err := EncodeKeyMaterial(&buf, mat); err != nil {
			t.Fatal(err)
		}
		leaky := func(w *Worker) *httptest.Server {
			mux := http.NewServeMux()
			mux.Handle("/", w.Handler())
			mux.HandleFunc("GET /v1/cluster/keys", func(rw http.ResponseWriter, _ *http.Request) { _, _ = rw.Write(buf.Bytes()) })
			return httptest.NewServer(mux)
		}
		s0, s1 := leaky(tc.workers[0]), leaky(tc.workers[1])
		g := NewGateway(GatewayConfig{Workers: []string{s0.URL, s1.URL}})
		err := g.Refresh(context.Background())
		var kse *KeyScopeError
		if !errors.As(err, &kse) || kse.Secret != tcase.secret || kse.SwitchingKeys != tcase.switching {
			t.Errorf("%s: Refresh error %v, want *KeyScopeError{Secret: %v, SwitchingKeys: %v}", tcase.name, err, tcase.secret, tcase.switching)
		}
		if models := g.Models(); len(models) != 1 || models[0].Available {
			t.Errorf("%s: model should be unavailable: %+v", tcase.name, models)
		}
		g.Close()
		s0.Close()
		s1.Close()
	}
}

// TestClusterFingerprintMismatch checks that workers with divergent
// key sets are refused: the model is marked unavailable with a
// fingerprint problem rather than silently merging undecryptable
// results.
func TestClusterFingerprintMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV key generation is slow")
	}
	f := clusterForest(t, 53)
	c, err := core.Compile(f, core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	w0 := NewWorker(WorkerConfig{Seed: 100})
	defer w0.Close()
	w1 := NewWorker(WorkerConfig{Seed: 200}) // different seed → different keys
	defer w1.Close()
	if err := w0.AddShard("forest", manifest, shards[0]); err != nil {
		t.Fatal(err)
	}
	if err := w1.AddShard("forest", manifest, shards[1]); err != nil {
		t.Fatal(err)
	}
	s0, s1 := httptest.NewServer(w0.Handler()), httptest.NewServer(w1.Handler())
	defer s0.Close()
	defer s1.Close()
	g := NewGateway(GatewayConfig{Workers: []string{s0.URL, s1.URL}})
	defer g.Close()
	if err := g.Refresh(context.Background()); err != nil {
		t.Logf("refresh: %v", err)
	}
	models := g.Models()
	if len(models) != 1 || models[0].Available || models[0].Problem == "" {
		t.Fatalf("mismatched-key model should be unavailable with a problem: %+v", models)
	}
	_, _, err = g.Classify(context.Background(), "forest", [][]uint64{{1, 2, 3}})
	var unavailable *ModelUnavailableError
	if !errors.As(err, &unavailable) {
		t.Fatalf("got %v, want *ModelUnavailableError", err)
	}
}

// TestWorkerErrors pins the worker staging error surface.
func TestWorkerErrors(t *testing.T) {
	f := clusterForest(t, 54)
	c, err := core.Compile(f, core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{}) // no seed, no material
	defer w.Close()
	if err := w.AddShard("m", manifest, shards[0]); err == nil {
		t.Error("seedless worker accepted a shard")
	}
	w2 := NewWorker(WorkerConfig{Seed: 5})
	defer w2.Close()
	if err := w2.AddShard("m", manifest, c); err == nil {
		t.Error("unsharded artifact accepted as a shard")
	}
	if err := w2.AddShard("", manifest, shards[0]); err == nil {
		t.Error("empty model name accepted")
	}
}

// TestWorkerRefusesForeignPlaneCount: the batch count of a classify
// request fixes its plane packing and so the ciphertext count; a frame
// announcing any other count is a 400 naming the layout, refused on the
// count alone — the frames here carry no ciphertext at all.
func TestWorkerRefusesForeignPlaneCount(t *testing.T) {
	if testing.Short() {
		t.Skip("stages a BGV worker")
	}
	c, err := core.Compile(clusterForest(t, 57), core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{Seed: 73})
	defer w.Close()
	if err := w.AddShard("forest", manifest, shards[0]); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	gm := &manifest.Meta
	for _, batch := range []int{1, gm.BatchCapacity()} {
		want := gm.QueryCiphertexts(gm.PlanesPerCiphertext(batch))
		for _, count := range []int{want + 1, gm.Precision + 1, 1 << 19} {
			var payload bytes.Buffer
			putU32(&payload, uint32(count))
			var frame bytes.Buffer
			if err := writeFrame(&frame, KindCiphertexts, payload.Bytes()); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(fmt.Sprintf("%s/v1/cluster/classify?model=forest&shard=0&batch=%d", srv.URL, batch), "application/octet-stream", &frame)
			if err != nil {
				t.Fatal(err)
			}
			var body struct{ Error string }
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			layout := (&core.QueryLayoutError{Planes: count, PlanesPerCiphertext: gm.PlanesPerCiphertext(batch), Block: gm.BatchBlock(), Want: want}).Error()
			if err != nil || resp.StatusCode != http.StatusBadRequest || body.Error != layout {
				t.Errorf("batch=%d with %d ciphertexts announced: %s %q (%v), want 400 %q", batch, count, resp.Status, body.Error, err, layout)
			}
		}
	}
}

// TestWorkerRefusesQueryAtWrongLevel: a frame with the right plane count
// whose planes sit one level below the shard's compare entry — the lowest
// level its program's entry drop takes them from — is a 400 naming both
// levels, refused before any op runs; frames at the manifest's query
// level, where the gateway encrypts them, and at the entry are served.
func TestWorkerRefusesQueryAtWrongLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("stages a BGV worker")
	}
	c, err := core.Compile(clusterForest(t, 59), core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{Seed: 74})
	defer w.Close()
	if err := w.AddShard("forest", manifest, shards[0]); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	w.mu.RLock()
	backend := w.backend
	w.mu.RUnlock()
	gm := &manifest.Meta
	q, err := core.PrepareQueryBatch(backend, gm, [][]uint64{{3, 9, 14}}, true)
	if err != nil {
		t.Fatal(err)
	}
	post := func(level int) (int, string) {
		t.Helper()
		wcs := make([]WireCiphertext, len(q.Bits))
		for i, op := range q.Bits {
			low, err := he.DropToLevel(backend, op, level)
			if err != nil {
				t.Fatal(err)
			}
			if wcs[i].Ct, wcs[i].Depth, err = backend.ExportCiphertext(low.Ct); err != nil {
				t.Fatal(err)
			}
		}
		var frame bytes.Buffer
		if err := EncodeCiphertexts(&frame, wcs); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/cluster/classify?model=forest&shard=0&batch=1", "application/octet-stream", &frame)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&body) // a 200 carries a frame, not JSON
		return resp.StatusCode, body.Error
	}
	// Encryption clamps the query level to the worker's chain top; a
	// worker serves the plaintext-model scenario.
	level := min(manifest.Meta.LevelPlan.QueryLevel(), backend.MaxLevel())
	entry := min(shards[0].Meta.LevelPlan.Plain.Compare, backend.MaxLevel())
	for _, at := range []int{level, entry} {
		if status, msg := post(at); status != http.StatusOK {
			t.Fatalf("planes at level %d (query level %d, compare entry %d): %d %q", at, level, entry, status, msg)
		}
	}
	want := (&core.QueryLayoutError{Want: len(q.Bits), Level: entry - 1, WantLevel: entry}).Error()
	if status, msg := post(entry - 1); status != http.StatusBadRequest || !strings.Contains(msg, want) {
		t.Errorf("planes one level below the compare entry: %d %q, want 400 %q", status, msg, want)
	}
}

// TestClusterShallowShard: a forest whose trees differ in depth shards
// into a deep shard and a shallow one, whose smaller circuit schedules its
// compare entry below the whole model's query level, where the gateway
// encrypts every shard's planes. The shallow shard's program drops them to
// its entry, so the gateway's answers are single-node serving's.
func TestClusterShallowShard(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV cluster round trip is slow")
	}
	gen := func(depth int, branches []int, seed uint64) *model.Forest {
		f, err := synth.Generate(synth.ForestSpec{NumFeatures: 3, NumLabels: 3, Precision: 4, MaxDepth: depth, BranchesPerTree: branches, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := gen(6, []int{10}, 91)
	f.Trees = append(f.Trees, gen(1, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 92).Trees...)
	c, err := core.Compile(f, core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	shallow := shards[1].Meta.LevelPlan
	if shallow.QueryLevel() >= manifest.Meta.LevelPlan.QueryLevel() {
		t.Fatalf("the shallow shard's plan reads query planes at level %d, not below the model's %d", shallow.QueryLevel(), manifest.Meta.LevelPlan.QueryLevel())
	}
	t.Logf("query level %d; shallow shard compare entry %d", manifest.Meta.LevelPlan.QueryLevel(), shallow.Plain.Compare)

	tc := startCluster(t, 63, func(workers []*Worker) {
		for i, s := range shards {
			if err := workers[i].AddShard("forest", manifest, s); err != nil {
				t.Fatalf("worker %d AddShard: %v", i, err)
			}
		}
	})
	defer tc.close()
	ref := copse.NewService(copse.WithScenario(copse.ScenarioServerModel), copse.WithSeed(8))
	defer ref.Close()
	if err := ref.Register("forest", c); err != nil {
		t.Fatal(err)
	}
	batch := [][]uint64{{3, 9, 14}, {0, 15, 7}}
	want, err := ref.ClassifyBatch(context.Background(), "forest", batch)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tc.gateway.Classify(context.Background(), "forest", batch)
	if err != nil {
		t.Fatalf("gateway classify: %v", err)
	}
	for i, res := range got {
		if !reflect.DeepEqual(res.PerTree, want[i].PerTree) || !reflect.DeepEqual(res.LeafBits, want[i].LeafBits) {
			t.Errorf("query %d: sharded perTree %v leaf bits %v, single-node %v %v", i, res.PerTree, res.LeafBits, want[i].PerTree, want[i].LeafBits)
		}
	}
}

// TestGatewayLatencyPerPass: a request of 2·capacity+1 queries runs three
// passes, and the gateway's per-model latency histogram takes one
// observation per pass — that pass's own fan-out, merge and decode, not
// the request's running total — so the largest reads below the total.
func TestGatewayLatencyPerPass(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV cluster round trip is slow")
	}
	f := clusterForest(t, 58)
	c, err := core.Compile(f, core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 67, func(workers []*Worker) {
		for i, s := range shards {
			if err := workers[i].AddShard("forest", manifest, s); err != nil {
				t.Fatalf("worker %d AddShard: %v", i, err)
			}
		}
	})
	defer tc.close()
	rng := rand.New(rand.NewPCG(5, 8))
	batch := make([][]uint64, 2*c.Meta.BatchCapacity()+1)
	for i := range batch {
		batch[i] = make([]uint64, f.NumFeatures)
		for j := range batch[i] {
			batch[i][j] = rng.Uint64N(1 << uint(f.Precision))
		}
	}
	got, trace, err := tc.gateway.Classify(context.Background(), "forest", batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, feats := range batch {
		if want := f.Classify(feats); !reflect.DeepEqual(got[i].PerTree, want) {
			t.Errorf("query %d: trees %v, the forest says %v", i, got[i].PerTree, want)
		}
	}
	tc.gateway.mu.RLock()
	snap := tc.gateway.latency["forest"].Snapshot()
	tc.gateway.mu.RUnlock()
	total := trace.Fanout + trace.Merge + trace.Decode
	if trace.Passes != 3 || snap.Count != 3 {
		t.Fatalf("%d passes, %d latency observations, want 3 of each", trace.Passes, snap.Count)
	}
	if largest := snap.Quantile(1); largest >= total {
		t.Errorf("largest pass latency reads %v, the request's fan-out + merge + decode is %v: a pass recorded a running total", largest, total)
	}
}

// TestWorkerDecodeCountBound: a decode request announcing more results
// than a pass can hold is the client's fault — a 400 carrying the typed
// capacity error, like an oversized classify batch — not a 500 that the
// gateway's breakers would count against the worker.
func TestWorkerDecodeCountBound(t *testing.T) {
	if testing.Short() {
		t.Skip("stages a BGV worker")
	}
	c, err := core.Compile(clusterForest(t, 59), core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{Seed: 79})
	defer w.Close()
	if err := w.AddShard("forest", manifest, shards[0]); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	// A well-formed merged result, so nothing but the count is wrong.
	ct, err := w.backend.Encrypt(make([]uint64, c.Meta.Slots))
	if err != nil {
		t.Fatal(err)
	}
	raw, depth, err := w.backend.ExportCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := EncodeCiphertexts(&frame, []WireCiphertext{{Ct: raw, Depth: depth}}); err != nil {
		t.Fatal(err)
	}
	capacity := manifest.Meta.BatchCapacity()
	resp, err := http.Post(fmt.Sprintf("%s/v1/cluster/decode?model=forest&count=%d", srv.URL, capacity+1), "application/octet-stream", &frame)
	if err != nil {
		t.Fatal(err)
	}
	var body struct{ Error string }
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	want := (&core.BatchCapacityError{Index: capacity + 1, Capacity: capacity}).Error()
	if err != nil || resp.StatusCode != http.StatusBadRequest || body.Error != want {
		t.Errorf("decode of %d results at capacity %d: %s %q (%v), want 400 %q", capacity+1, capacity, resp.Status, body.Error, err, want)
	}
}
