package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"copse/internal/cluster"
)

// countingTransport is the traced run's cluster wire boundary: passed
// to the gateway as GatewayConfig.Client's transport, it counts calls
// and bytes both ways and records a cluster.http span per round trip
// (ended when the response body has been read).
type countingTransport struct {
	base http.RoundTripper
	rec  *recorder

	parent, request atomic.Int64 // the request in progress (one closed-loop client)
	calls, bytes    atomic.Int64
}

func newCountingTransport(rec *recorder) *countingTransport {
	return &countingTransport{base: http.DefaultTransport, rec: rec}
}

func (t *countingTransport) under(parent, request int) {
	t.parent.Store(int64(parent))
	t.request.Store(int64(request))
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	id := t.rec.begin("cluster.http", int(t.parent.Load()), int(t.request.Load()), start)
	t.calls.Add(1)
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.end(id, time.Now())
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, t: t, span: id}
	return resp, nil
}

type countedBody struct {
	io.ReadCloser
	t    *countingTransport
	span int
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.bytes.Add(int64(n))
	return n, err
}

func (b *countedBody) Close() error {
	b.t.rec.end(b.span, time.Now())
	return b.ReadCloser.Close()
}

// clusterSpans synthesises one gateway request's spans from its
// FanoutTrace and files the cluster.http spans recorded meanwhile under
// the stage they started in.
func clusterSpans(rec *recorder, root, request int, start, end time.Time, ft *cluster.FanoutTrace) {
	if ft == nil {
		return
	}
	classify := rec.add("cluster.classify", root, request, start, end)
	rec.layStages(classify, request, start, root, "cluster.http", []stage{
		{"cluster.encrypt", ft.Encrypt}, {"cluster.fanout", ft.Fanout},
		{"cluster.merge", ft.Merge}, {"cluster.decode", ft.Decode},
	})
}

// gatewayCounters reads the retry and hedge counters the gateway
// exposes only through its /v1/stats endpoint.
func gatewayCounters(gw *cluster.Gateway) (retries, hedges float64, err error) {
	rw := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st struct {
		Retries int64 `json:"retries"`
		Hedges  int64 `json:"hedges"`
	}
	if err := json.NewDecoder(rw.Body).Decode(&st); err != nil {
		return 0, 0, err
	}
	return float64(st.Retries), float64(st.Hedges), nil
}
