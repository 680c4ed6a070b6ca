// Package chaos is a deterministic fault-injection harness for the
// serving stack (DESIGN.md §15). It wraps the two surfaces where
// production failures enter the system — the homomorphic backend
// (he.Backend) and the cluster data plane (http.RoundTripper /
// net.Listener) — and injects latency spikes, errors, panics,
// connection resets, garbled/truncated CPSW frames, and 5xx bursts
// according to a seeded schedule, so every chaos test is reproducible
// from its seed.
//
// Determinism model: each individual fault draw is a pure function of
// (schedule seed, op class, draw sequence number), so a single-threaded
// test replays exactly and a concurrent soak keeps a seed-determined
// aggregate fault mix even though goroutine interleaving varies which
// call observes which draw.
package chaos

import (
	"errors"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Op classifies the call sites a Schedule can target with distinct
// fault rates. Backend wrappers draw with the homomorphic op classes;
// the transport wrappers draw with OpNet.
type Op string

const (
	// OpEncrypt covers Encrypt/EncryptAtLevel and the staging of an
	// encrypted factor.
	OpEncrypt Op = "encrypt"
	// OpDecrypt covers Decrypt.
	OpDecrypt Op = "decrypt"
	// OpEncode covers EncodePlain/EncodePlainAtLevel and the staging of
	// a plaintext factor (StageFactorsAtLevel).
	OpEncode Op = "encode"
	// OpAdd covers Add/Sub/Neg/AddPlain.
	OpAdd Op = "add"
	// OpMul covers Mul/MulLazy/MulPlain/Relinearize/MulDiagSum.
	OpMul Op = "mul"
	// OpRotate covers Rotate/RotateHoisted.
	OpRotate Op = "rotate"
	// OpNet covers data-plane HTTP round trips and accepted connections.
	OpNet Op = "net"
)

// ErrInjected is the sentinel wrapped by every error the harness
// injects; tests distinguish injected faults from organic failures with
// errors.Is(err, chaos.ErrInjected).
var ErrInjected = errors.New("chaos: injected fault")

// Rates is the per-op-class fault mix. Every probability is in [0, 1]
// and drawn independently per call; at most one fault fires per call,
// with precedence Panic > Error > Reset > ServerError > Garble >
// Truncate (latency composes with any of them).
type Rates struct {
	// Latency is the probability of an injected delay, uniform in
	// [LatencyMin, LatencyMax].
	Latency    float64
	LatencyMin time.Duration
	LatencyMax time.Duration
	// Error is the probability of a returned error wrapping ErrInjected.
	Error float64
	// Panic is the probability of an injected panic (backend ops only).
	Panic float64

	// The remaining rates apply only to OpNet draws.

	// Reset is the probability of a simulated connection reset.
	Reset float64
	// ServerError is the probability of a synthesized 503 response.
	ServerError float64
	// Garble is the probability of deterministic byte corruption in the
	// response body.
	Garble float64
	// Truncate is the probability of the response body being cut short.
	Truncate float64
}

// zero reports whether no fault can ever fire under r.
func (r Rates) zero() bool {
	return r.Latency == 0 && r.Error == 0 && r.Panic == 0 &&
		r.Reset == 0 && r.ServerError == 0 && r.Garble == 0 && r.Truncate == 0
}

// Config seeds a Schedule. Default applies to every op class without a
// PerOp override.
type Config struct {
	Seed    uint64
	Default Rates
	PerOp   map[Op]Rates
}

// Fault is the outcome of one draw: the injections the call site must
// apply before (or instead of) doing its real work.
type Fault struct {
	// Latency is an injected delay (0 = none). It composes with the
	// other fields: a call can be both slowed and failed.
	Latency time.Duration
	// Panic instructs the call site to panic (backend ops only).
	Panic bool
	// Err is a non-nil injected error wrapping ErrInjected.
	Err error
	// Reset, ServerError, Garble, Truncate are transport faults; the
	// RoundTripper maps them to a connection-reset error, a synthesized
	// 503, corrupted body bytes, and a short body respectively.
	Reset       bool
	ServerError bool
	Garble      bool
	Truncate    bool
}

// Schedule is a seeded, armable fault source shared by all chaos
// wrappers of one test. It starts disarmed so staging/warm-up traffic
// runs clean; Arm(true) starts injecting.
type Schedule struct {
	cfg   Config
	armed atomic.Bool
	seq   atomic.Uint64
	drawn atomic.Int64
}

// NewSchedule builds a disarmed schedule from cfg.
func NewSchedule(cfg Config) *Schedule {
	return &Schedule{cfg: cfg}
}

// Arm toggles injection. While disarmed every Draw returns a zero
// Fault without consuming sequence numbers, so the armed portion of a
// run is reproducible regardless of how much clean traffic preceded it.
func (s *Schedule) Arm(on bool) { s.armed.Store(on) }

// Injected reports how many non-zero faults the schedule has produced.
func (s *Schedule) Injected() int64 { return s.drawn.Load() }

// hashOp folds an op class into the seed (FNV-1a, stable across
// processes) so each class has an independent deterministic stream.
func hashOp(op Op) uint64 {
	var v uint64 = 14695981039346656037
	for i := 0; i < len(op); i++ {
		v ^= uint64(op[i])
		v *= 1099511628211
	}
	return v
}

// rates resolves the mix for op.
func (s *Schedule) rates(op Op) Rates {
	if r, ok := s.cfg.PerOp[op]; ok {
		return r
	}
	return s.cfg.Default
}

// Draw produces the fault (possibly none) for the next call of class
// op. Each draw is a pure function of (Config.Seed, op, sequence
// number), so a run replays from its seed.
func (s *Schedule) Draw(op Op) Fault {
	if !s.armed.Load() {
		return Fault{}
	}
	r := s.rates(op)
	if r.zero() {
		return Fault{}
	}
	n := s.seq.Add(1)
	rng := rand.New(rand.NewPCG(s.cfg.Seed^hashOp(op), n))
	var f Fault
	if r.Latency > 0 && rng.Float64() < r.Latency {
		lo, hi := r.LatencyMin, r.LatencyMax
		if hi < lo {
			hi = lo
		}
		f.Latency = lo
		if span := hi - lo; span > 0 {
			f.Latency += time.Duration(rng.Int64N(int64(span) + 1))
		}
	}
	// One terminal fault per call, by precedence.
	switch p := rng.Float64(); {
	case r.Panic > 0 && p < r.Panic:
		f.Panic = true
	case r.Error > 0 && p < r.Panic+r.Error:
		f.Err = &InjectedError{Op: op, Seq: n}
	case op != OpNet:
		// Transport faults do not apply to backend ops.
	case r.Reset > 0 && p < r.Panic+r.Error+r.Reset:
		f.Reset = true
	case r.ServerError > 0 && p < r.Panic+r.Error+r.Reset+r.ServerError:
		f.ServerError = true
	case r.Garble > 0 && p < r.Panic+r.Error+r.Reset+r.ServerError+r.Garble:
		f.Garble = true
	case r.Truncate > 0 && p < r.Panic+r.Error+r.Reset+r.ServerError+r.Garble+r.Truncate:
		f.Truncate = true
	}
	if f.Latency > 0 || f.Panic || f.Err != nil || f.Reset || f.ServerError || f.Garble || f.Truncate {
		s.drawn.Add(1)
	}
	return f
}

// InjectedError is the concrete error the harness returns for Error
// draws; it wraps ErrInjected and records which draw produced it.
type InjectedError struct {
	Op  Op
	Seq uint64
}

func (e *InjectedError) Error() string {
	return "chaos: injected " + string(e.Op) + " fault"
}

// Unwrap makes errors.Is(err, ErrInjected) hold.
func (e *InjectedError) Unwrap() error { return ErrInjected }
