package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"copse"
	"copse/internal/core"
)

// TestWriteErrorStatus pins the serving-failure taxonomy's HTTP map over
// every typed error, bare and wrapped: the status, the Retry-After hint
// of a 429, and the error text as the body.
func TestWriteErrorStatus(t *testing.T) {
	shed := &httpStatusError{Status: http.StatusTooManyRequests, StatusLine: "429 Too Many Requests", Msg: "overloaded", RetryAfter: "3"}
	for _, tc := range []struct {
		err        error
		status     int
		retryAfter string
	}{
		{&copse.OverloadError{Model: "m", Queued: 2, RetryAfter: 2500 * time.Millisecond}, http.StatusTooManyRequests, "2"},
		{&copse.OverloadError{Model: "m", Queued: 2}, http.StatusTooManyRequests, "1"},
		{&ShardError{Model: "m", Shard: 1, Err: shed}, http.StatusTooManyRequests, "3"},
		{&copse.DeadlineError{Stage: "fanout", Remaining: time.Millisecond, Needed: time.Second}, http.StatusGatewayTimeout, ""},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, ""},
		{&copse.UnknownModelError{Model: "m"}, http.StatusNotFound, ""},
		{&core.FeatureError{Query: 1, Features: 3, Want: 2}, http.StatusBadRequest, ""},
		{&core.FeatureError{Query: 0, Features: 2, Want: 2, Feature: 1, Value: 16, Precision: 4}, http.StatusBadRequest, ""},
		{&core.EmptyBatchError{}, http.StatusBadRequest, ""},
		{&copse.ResultModelError{Model: "b", ProducedBy: "a"}, http.StatusBadRequest, ""},
		{&core.QueryLayoutError{Planes: 5, PlanesPerCiphertext: 1, Block: 8, Want: 4}, http.StatusBadRequest, ""},
		{&core.BatchCapacityError{Index: 9, Capacity: 8}, http.StatusBadRequest, ""},
		{&ModelUnavailableError{Model: "m", Missing: []int{1}}, http.StatusServiceUnavailable, ""},
		{&ShardError{Model: "m", Shard: 0, Err: errors.New("connection refused")}, http.StatusBadGateway, ""},
		{&ShardError{Model: "m", Shard: 0, Err: &httpStatusError{Status: http.StatusInternalServerError, StatusLine: "500 Internal Server Error"}}, http.StatusBadGateway, ""},
		{&copse.InternalError{Op: "classify", Value: "boom"}, http.StatusInternalServerError, ""},
		{errors.New("plain"), http.StatusInternalServerError, ""},
	} {
		for _, err := range []error{tc.err, fmt.Errorf("serving: %w", tc.err)} {
			rw := httptest.NewRecorder()
			WriteError(rw, err)
			var body struct{ Error string }
			if jerr := json.Unmarshal(rw.Body.Bytes(), &body); jerr != nil || body.Error != err.Error() {
				t.Errorf("%T %q: body %q (%v)", tc.err, err, rw.Body.String(), jerr)
			}
			if rw.Code != tc.status || rw.Header().Get("Retry-After") != tc.retryAfter {
				t.Errorf("%T %q: %d Retry-After %q, want %d %q", tc.err, err, rw.Code, rw.Header().Get("Retry-After"), tc.status, tc.retryAfter)
			}
		}
	}
}

// TestGatewayRefusesMalformedQueries: an unknown model is a 404 and a
// malformed feature vector or an empty batch a 400 at the gateway —
// refused before any pass, not counted as requests or serving failures —
// and an unknown model is a 404 at the worker too.
func TestGatewayRefusesMalformedQueries(t *testing.T) {
	c, err := core.Compile(clusterForest(t, 58), core.Options{Slots: 1024})
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
	ws := httptest.NewServer(w.Handler())
	defer ws.Close()
	g := NewGateway(GatewayConfig{Workers: []string{ws.URL}})
	defer g.Close()
	if err := g.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(g.Handler())
	defer gs.Close()

	limit := uint64(1) << c.Meta.Precision
	for _, tc := range []struct {
		name   string
		req    ClassifyRequest
		status int
		err    error
	}{
		{"unknown model", ClassifyRequest{Model: "nope", Queries: [][]uint64{{1, 2, 3}}}, http.StatusNotFound,
			&copse.UnknownModelError{Model: "nope"}},
		{"feature count", ClassifyRequest{Model: "forest", Queries: [][]uint64{{1, 2, 3}, {1, 2}}}, http.StatusBadRequest,
			&core.FeatureError{Query: 1, Features: 2, Want: 3}},
		{"precision", ClassifyRequest{Model: "forest", Queries: [][]uint64{{1, limit, 3}}}, http.StatusBadRequest,
			&core.FeatureError{Query: 0, Features: 3, Want: 3, Feature: 1, Value: limit, Precision: c.Meta.Precision}},
	} {
		body, _ := json.Marshal(tc.req)
		resp, err := http.Post(gs.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != tc.status || got.Error != tc.err.Error() {
			t.Errorf("gateway %s: %s %q (%v), want %d %q", tc.name, resp.Status, got.Error, err, tc.status, tc.err.Error())
		}
	}
	// An empty batch reaches Gateway.Classify only in process (the HTTP
	// body is refused first); it is refused typed.
	var empty *core.EmptyBatchError
	if _, _, err := g.Classify(context.Background(), "forest", nil); !errors.As(err, &empty) {
		t.Errorf("gateway Classify of no queries: %v, want *core.EmptyBatchError", err)
	}
	var stats struct{ Requests, Failures int64 }
	resp, err := http.Get(gs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.Requests != 0 || stats.Failures != 0 {
		t.Errorf("gateway stats after refusals: %+v (%v), want no requests and no failures", stats, err)
	}

	for _, call := range []struct{ method, path string }{
		{http.MethodGet, "/v1/cluster/meta?model=nope"},
		{http.MethodPost, "/v1/cluster/decode?model=nope&count=1"},
		{http.MethodPost, "/v1/cluster/classify?model=nope&shard=0&batch=1"},
	} {
		req, err := http.NewRequest(call.method, ws.URL+call.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("worker %s %s: %s, want 404", call.method, call.path, resp.Status)
		}
	}

	// The worker serves copse.ServiceStats' one JSON form, the single-node
	// server's.
	var workerStats map[string]json.RawMessage
	if resp, err = http.Get(ws.URL + "/v1/stats"); err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&workerStats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"requests", "queued", "meanQueueWaitMS", "utilisation", "levelsPerOperand", "shed", "batcherPasses", "modelLatency"} {
		if _, ok := workerStats[key]; !ok {
			t.Errorf("worker /v1/stats lacks %q", key)
		}
	}
}

// TestGatewayModelsMatchAdmission: /v1/models reports a model available
// exactly when Classify admits it. A route that keeps its meta while its
// fingerprint has no backend — here after Close, which drops the backends
// — is unavailable in /v1/models, with the reason, and Classify refuses it
// with a 503.
func TestGatewayModelsMatchAdmission(t *testing.T) {
	c, err := core.Compile(clusterForest(t, 58), core.Options{Slots: 1024})
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
	ws := httptest.NewServer(w.Handler())
	defer ws.Close()
	g := NewGateway(GatewayConfig{Workers: []string{ws.URL}})
	if err := g.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	gs := httptest.NewServer(g.Handler())
	defer gs.Close()
	models := func() []GatewayModel {
		t.Helper()
		resp, err := http.Get(gs.URL + "/v1/models")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []GatewayModel
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := models(); len(got) != 1 || !got[0].Available {
		t.Fatalf("after Refresh: %+v, want forest available", got)
	}

	g.Close()
	got := models()
	if len(got) != 1 || got[0].Available || got[0].NumFeatures == 0 || got[0].Problem == "" {
		t.Errorf("meta but no backend: %+v, want forest unavailable with its meta and a reason", got)
	}
	body, _ := json.Marshal(ClassifyRequest{Model: "forest", Queries: [][]uint64{{1, 2, 3}}})
	resp, err := http.Post(gs.URL+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("classify on a route without a backend: %s, want 503", resp.Status)
	}
}

// TestGatewayConcurrentRefresh: Refresh calls racing each other and
// Models on a fresh gateway read and write a route's meta and problem
// under the gateway lock only (run under -race), and leave the model
// routed with its meta.
func TestGatewayConcurrentRefresh(t *testing.T) {
	c, err := core.Compile(clusterForest(t, 58), core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := core.ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, 74, func(workers []*Worker) {
		for i, s := range shards {
			if err := workers[i].AddShard("forest", manifest, s); err != nil {
				t.Fatalf("worker %d AddShard: %v", i, err)
			}
		}
	})
	defer tc.close()
	var urls []string
	for _, s := range tc.servers {
		urls = append(urls, s.URL)
	}
	// Each round is a fresh gateway: its first refreshes fetch the meta.
	for range 16 {
		g := NewGateway(GatewayConfig{Workers: urls})
		var refreshes, models sync.WaitGroup
		errs := make(chan error, 3)
		for range 3 {
			refreshes.Add(1)
			go func() {
				defer refreshes.Done()
				errs <- g.Refresh(context.Background())
			}()
		}
		done := make(chan struct{})
		models.Add(1)
		go func() {
			defer models.Done()
			for {
				select {
				case <-done:
					return
				default:
					g.Models()
				}
			}
		}()
		refreshes.Wait()
		close(done)
		models.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Errorf("Refresh: %v", err)
			}
		}
		if got := g.Models(); len(got) != 1 || !got[0].Available || got[0].NumFeatures == 0 {
			t.Errorf("after concurrent refreshes: %+v, want forest available with its meta", got)
		}
		g.Close()
	}
}
