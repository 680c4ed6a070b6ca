package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"copse"
	"copse/internal/core"
)

// WriteJSON answers v as a JSON body.
func WriteJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(v)
}

// httpError answers err as a JSON {"error": ...} body with the given
// status.
func httpError(rw http.ResponseWriter, status int, err error) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(map[string]string{"error": err.Error()})
}

// WriteError answers a failed request with the status the serving-failure
// taxonomy (DESIGN.md §15.2) gives its error, wrapped or bare — the one
// map single-node, worker and gateway handlers all answer through:
// overload is 429 with a Retry-After hint (a worker's 429 passes through
// the gateway with its hint), deadline exhaustion 504, an unknown model
// 404, a malformed query 400, an under-covered model 503, a shard that
// failed on every holder 502, and anything else — recovered panics
// included — 500.
func WriteError(rw http.ResponseWriter, err error) {
	var (
		overload    *copse.OverloadError
		upstream    *httpStatusError
		deadline    *copse.DeadlineError
		unknown     *copse.UnknownModelError
		feature     *core.FeatureError
		layout      *core.QueryLayoutError
		capacity    *core.BatchCapacityError
		unavailable *ModelUnavailableError
		shard       *ShardError
	)
	status := http.StatusInternalServerError
	switch {
	case errors.As(err, &overload):
		rw.Header().Set("Retry-After", strconv.FormatInt(max(int64(overload.RetryAfter/time.Second), 1), 10))
		status = http.StatusTooManyRequests
	case errors.As(err, &upstream) && upstream.Status == http.StatusTooManyRequests:
		if upstream.RetryAfter != "" {
			rw.Header().Set("Retry-After", upstream.RetryAfter)
		}
		status = http.StatusTooManyRequests
	case errors.As(err, &deadline), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.As(err, &unknown):
		status = http.StatusNotFound
	case errors.As(err, &feature), errors.As(err, &layout), errors.As(err, &capacity):
		status = http.StatusBadRequest
	case errors.As(err, &unavailable):
		status = http.StatusServiceUnavailable
	case errors.As(err, &shard):
		status = http.StatusBadGateway
	}
	httpError(rw, status, err)
}

// ClassifyRequest is the JSON body of POST /v1/classify on a single-node
// server and on a gateway.
type ClassifyRequest struct {
	Model   string     `json:"model"`
	Queries [][]uint64 `json:"queries"`
}

// maxClassifyRequestBytes bounds a classify request body (~hundreds of
// thousands of queries); larger posts get a 400 instead of exhausting
// the process.
const maxClassifyRequestBytes = 8 << 20

// ReadClassifyRequest decodes a classify request, answering a malformed
// or empty one with 400 and returning false.
func ReadClassifyRequest(rw http.ResponseWriter, r *http.Request) (ClassifyRequest, bool) {
	var req ClassifyRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxClassifyRequestBytes)).Decode(&req); err != nil {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
		return req, false
	}
	if req.Model == "" || len(req.Queries) == 0 {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("need model and at least one query"))
		return req, false
	}
	return req, true
}
