package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"copse"
	"copse/internal/cluster"
)

// serveFigure1 fronts a clear-backend service holding the paper's Figure 1
// model with the single-node HTTP surface.
func serveFigure1(t *testing.T, shuffle bool, opts ...copse.Option) (*copse.Forest, *copse.Compiled, *httptest.Server) {
	t.Helper()
	forest := copse.ExampleForest()
	c, err := copse.Compile(forest, copse.CompileOptions{Slots: 1024, PlanShuffle: shuffle})
	if err != nil {
		t.Fatal(err)
	}
	svc := copse.NewService(append([]copse.Option{copse.WithBackend(copse.BackendClear), copse.WithShuffle(shuffle)}, opts...)...)
	t.Cleanup(func() { svc.Close() })
	if err := svc.Register("figure1", c); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer((&server{svc: svc}).handler())
	t.Cleanup(ts.Close)
	return forest, c, ts
}

// postClassify posts a classify request and decodes the response body
// into out, returning the status.
func postClassify(t *testing.T, url string, req cluster.ClassifyRequest, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", resp.Status, err)
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestSingleNodeHTTP drives the single-node surface end to end: classify
// answers — one batch, then concurrent single-query handlers over the one
// service — match the plaintext walk, a malformed query is a 400 and an
// unknown model a 404 naming the typed error, /v1/models reports the
// batch capacity and /v1/stats the service's counters.
func TestSingleNodeHTTP(t *testing.T) {
	forest, c, ts := serveFigure1(t, false)

	queries := [][]uint64{{0, 5}, {7, 0}, {3, 3}, {6, 6}}
	var resp cluster.ClassifyResponse
	if status := postClassify(t, ts.URL, cluster.ClassifyRequest{Model: "figure1", Queries: queries}, &resp); status != http.StatusOK {
		t.Fatalf("classify: status %d", status)
	}
	if len(resp.Results) != len(queries) || resp.Passes != 1 || resp.Shuffled {
		t.Fatalf("classify response: %+v", resp)
	}
	for i, q := range queries {
		want := forest.Classify(q)
		if got := resp.Results[i]; !slices.Equal(got.PerTree, want) || got.LabelName != forest.Labels[want[0]] {
			t.Errorf("query %v: per-tree %v (%s), want %v (%s)", q, got.PerTree, got.LabelName, want, forest.Labels[want[0]])
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(cluster.ClassifyRequest{Model: "figure1", Queries: [][]uint64{q}})
			resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var one cluster.ClassifyResponse
			if err := json.NewDecoder(resp.Body).Decode(&one); err != nil || len(one.Results) != 1 {
				errs[i] = fmt.Errorf("query %v: %s %+v (%v)", q, resp.Status, one, err)
			} else if want := forest.Classify(q); !slices.Equal(one.Results[0].PerTree, want) {
				errs[i] = fmt.Errorf("query %v alone: per-tree %v, want %v", q, one.Results[0].PerTree, want)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	for _, tc := range []struct {
		name   string
		req    cluster.ClassifyRequest
		status int
		err    error
	}{
		{"feature count", cluster.ClassifyRequest{Model: "figure1", Queries: [][]uint64{{0, 5}, {1}}}, http.StatusBadRequest,
			&copse.FeatureError{Query: 1, Features: 1, Want: 2}},
		{"precision", cluster.ClassifyRequest{Model: "figure1", Queries: [][]uint64{{0, 1 << c.Meta.Precision}}}, http.StatusBadRequest,
			&copse.FeatureError{Query: 0, Features: 2, Want: 2, Feature: 1, Value: 1 << c.Meta.Precision, Precision: c.Meta.Precision}},
		{"unknown model", cluster.ClassifyRequest{Model: "nope", Queries: queries}, http.StatusNotFound,
			&copse.UnknownModelError{Model: "nope"}},
	} {
		var body struct{ Error string }
		if status := postClassify(t, ts.URL, tc.req, &body); status != tc.status || body.Error != tc.err.Error() {
			t.Errorf("%s: %d %q, want %d %q", tc.name, status, body.Error, tc.status, tc.err.Error())
		}
	}

	var models []modelInfo
	getJSON(t, ts.URL+"/v1/models", &models)
	if len(models) != 1 || models[0].Name != "figure1" || models[0].BatchCapacity != c.Meta.BatchCapacity() {
		t.Errorf("/v1/models: %+v, want figure1 with batch capacity %d", models, c.Meta.BatchCapacity())
	}

	var stats struct {
		Requests     *int64   `json:"requests"`
		Queries      *int64   `json:"queries"`
		Failures     *int64   `json:"failures"`
		Utilisation  *float64 `json:"utilisation"`
		ModelLatency map[string]struct {
			Count int64    `json:"count"`
			P50MS *float64 `json:"p50MS"`
		} `json:"modelLatency"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	passes, answered := int64(1+len(queries)), int64(2*len(queries))
	if stats.Requests == nil || *stats.Requests != passes || stats.Queries == nil || *stats.Queries != answered {
		t.Errorf("/v1/stats requests/queries: %v/%v, want %d/%d", stats.Requests, stats.Queries, passes, answered)
	}
	if stats.Failures == nil || *stats.Failures != 0 {
		t.Errorf("/v1/stats failures %v: refused queries are not serving failures", stats.Failures)
	}
	if stats.Utilisation == nil {
		t.Error("/v1/stats has no utilisation")
	}
	if lat, ok := stats.ModelLatency["figure1"]; !ok || lat.Count != passes || lat.P50MS == nil {
		t.Errorf("/v1/stats modelLatency: %+v", stats.ModelLatency)
	}
}

// TestSingleNodeHTTPShuffled: a shuffled service answers with per-query
// codebooks, tree counts and vote counts, and no per-tree labels or leaf
// bits at all.
func TestSingleNodeHTTPShuffled(t *testing.T) {
	forest, _, ts := serveFigure1(t, true, copse.WithSeed(7))
	queries := [][]uint64{{0, 5}, {7, 0}}
	var resp struct {
		Shuffled bool                         `json:"shuffled"`
		Results  []map[string]json.RawMessage `json:"results"`
	}
	if status := postClassify(t, ts.URL, cluster.ClassifyRequest{Model: "figure1", Queries: queries}, &resp); status != http.StatusOK {
		t.Fatalf("classify: status %d", status)
	}
	if !resp.Shuffled || len(resp.Results) != len(queries) {
		t.Fatalf("shuffled response: %+v", resp)
	}
	for i, res := range resp.Results {
		for _, hidden := range []string{"perTree", "leafBits"} {
			if _, ok := res[hidden]; ok {
				t.Errorf("query %d: shuffled result carries %s", i, hidden)
			}
		}
		if string(res["numTrees"]) != fmt.Sprint(len(forest.Trees)) {
			t.Errorf("query %d: numTrees %s, want %d", i, res["numTrees"], len(forest.Trees))
		}
		var codebook, votes []int
		if err := json.Unmarshal(res["codebook"], &codebook); err != nil || len(codebook) == 0 {
			t.Errorf("query %d: codebook %s (%v)", i, res["codebook"], err)
		}
		if err := json.Unmarshal(res["votes"], &votes); err != nil {
			t.Fatal(err)
		}
		want := make([]int, len(forest.Labels))
		for _, l := range forest.Classify(queries[i]) {
			want[l]++
		}
		if !slices.Equal(votes, want) {
			t.Errorf("query %d: votes %v, want %v", i, votes, want)
		}
	}
}

// figure1Cluster runs one worker holding the Figure 1 model as a single
// shard, served through wrapWorker, and a gateway that has probed it.
func figure1Cluster(t *testing.T, wrapWorker func(http.Handler) http.Handler) *cluster.Gateway {
	t.Helper()
	c, err := copse.Compile(copse.ExampleForest(), copse.CompileOptions{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := copse.ShardForest(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorker(cluster.WorkerConfig{Seed: 9})
	t.Cleanup(func() { w.Close() })
	if err := w.AddShard("figure1", manifest, shards[0]); err != nil {
		t.Fatal(err)
	}
	ws := httptest.NewServer(wrapWorker(w.Handler()))
	t.Cleanup(ws.Close)
	g := cluster.NewGateway(cluster.GatewayConfig{Workers: []string{ws.URL}, Retries: -1})
	t.Cleanup(func() { g.Close() })
	if err := g.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestClassifyResponseShape: the single node and the gateway answer
// /v1/classify for the same forest with one body shape,
// cluster.ClassifyResponse, and the same labels, votes, per-tree labels
// and leaf bits; only the single node's or only the gateway's fields are
// left out of the other's body.
func TestClassifyResponseShape(t *testing.T) {
	forest, _, single := serveFigure1(t, false)
	gs := httptest.NewServer(figure1Cluster(t, func(h http.Handler) http.Handler { return h }).Handler())
	defer gs.Close()
	req := cluster.ClassifyRequest{Model: "figure1", Queries: [][]uint64{{0, 5}, {7, 0}, {3, 3}}}
	var bodies [2]cluster.ClassifyResponse
	var raw [2]map[string]json.RawMessage
	for i, url := range []string{single.URL, gs.URL} {
		if status := postClassify(t, url, req, &bodies[i]); status != http.StatusOK {
			t.Fatalf("%s: status %d", url, status)
		}
		postClassify(t, url, req, &raw[i])
	}
	node, gateway := bodies[0], bodies[1]
	if len(node.Results) != len(req.Queries) || len(gateway.Results) != len(req.Queries) {
		t.Fatalf("single node %d results, gateway %d, for %d queries", len(node.Results), len(gateway.Results), len(req.Queries))
	}
	for i, q := range req.Queries {
		a, b := node.Results[i], gateway.Results[i]
		if want := forest.Classify(q); !slices.Equal(a.PerTree, want) {
			t.Errorf("query %v: per-tree %v, want %v", q, a.PerTree, want)
		}
		if a.Label != b.Label || a.LabelName != b.LabelName || !slices.Equal(a.Votes, b.Votes) ||
			!slices.Equal(a.PerTree, b.PerTree) || !slices.Equal(a.LeafBits, b.LeafBits) {
			t.Errorf("query %v: single node %+v, gateway %+v", q, a, b)
		}
	}
	if gateway.Shards != 1 || node.Shards != 0 || node.Passes != 1 || gateway.Passes != 1 {
		t.Errorf("single node %d shards %d passes, gateway %d shards %d passes", node.Shards, node.Passes, gateway.Shards, gateway.Passes)
	}
	for _, field := range []string{"shards", "fanoutMS", "mergeMS"} {
		if _, ok := raw[0][field]; ok {
			t.Errorf("single-node body carries the gateway's %q", field)
		}
	}
	if _, ok := raw[1]["shuffled"]; ok {
		t.Error("gateway body carries the single node's \"shuffled\"")
	}
}

// TestGatewayRequestDeadline: a gateway under a deadline it cannot meet
// answers /v1/classify with 504 — the -timeout deadline reaches its
// stage checks, not only each hop.
func TestGatewayRequestDeadline(t *testing.T) {
	g := figure1Cluster(t, func(h http.Handler) http.Handler { return h })
	gs := httptest.NewServer(withDeadline(g.Handler(), time.Nanosecond))
	defer gs.Close()
	var resp struct{ Error string }
	if status := postClassify(t, gs.URL, cluster.ClassifyRequest{Model: "figure1", Queries: [][]uint64{{3, 7}}}, &resp); status != http.StatusGatewayTimeout {
		t.Fatalf("gateway under a 1 ns deadline: %d %q, want 504", status, resp.Error)
	}
}

// TestWorkerRequestDeadline: a worker under a deadline it cannot meet
// answers /v1/cluster/classify with 504 — the -timeout deadline reaches
// its service's fast-fail.
func TestWorkerRequestDeadline(t *testing.T) {
	var mu sync.Mutex
	var statuses []int
	g := figure1Cluster(t, func(h http.Handler) http.Handler {
		h = withDeadline(h, time.Nanosecond)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
			h.ServeHTTP(rec, r)
			if r.URL.Path == "/v1/cluster/classify" {
				mu.Lock()
				statuses = append(statuses, rec.status)
				mu.Unlock()
			}
		})
	})
	gs := httptest.NewServer(g.Handler())
	defer gs.Close()
	var resp struct{ Error string }
	if status := postClassify(t, gs.URL, cluster.ClassifyRequest{Model: "figure1", Queries: [][]uint64{{3, 7}}}, &resp); status == http.StatusOK {
		t.Fatal("classified through a worker under a 1 ns deadline")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(statuses) == 0 || slices.ContainsFunc(statuses, func(s int) bool { return s != http.StatusGatewayTimeout }) {
		t.Fatalf("worker /v1/cluster/classify answered %v, want 504", statuses)
	}
}

// statusRecorder notes the status a handler answers with.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}
