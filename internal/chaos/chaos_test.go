package chaos

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/he/heclear"
)

// TestScheduleDeterministic: the same seed must produce the same fault
// stream, and a disarmed schedule must never inject.
func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{
		Seed:    42,
		Default: Rates{Latency: 0.3, LatencyMin: time.Millisecond, LatencyMax: 5 * time.Millisecond, Error: 0.2, Panic: 0.1},
	}
	draw := func() []Fault {
		s := NewSchedule(cfg)
		s.Arm(true)
		out := make([]Fault, 64)
		for i := range out {
			out[i] = s.Draw(OpMul)
		}
		return out
	}
	// Fault holds an error pointer, so compare the observable outcome
	// (latency, panic flag, injected-error sequence) rather than the
	// struct directly.
	sameFault := func(x, y Fault) bool {
		if x.Latency != y.Latency || x.Panic != y.Panic || (x.Err == nil) != (y.Err == nil) {
			return false
		}
		var xe, ye *InjectedError
		if errors.As(x.Err, &xe) != errors.As(y.Err, &ye) {
			return false
		}
		return xe == nil || (xe.Op == ye.Op && xe.Seq == ye.Seq)
	}
	a, b := draw(), draw()
	var injected int
	for i := range a {
		if !sameFault(a[i], b[i]) {
			t.Fatalf("draw %d differs between same-seed schedules: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Latency > 0 || a[i].Err != nil || a[i].Panic {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("64 draws at 30%/20%/10% rates injected nothing")
	}

	other := NewSchedule(Config{Seed: 43, Default: cfg.Default})
	other.Arm(true)
	same := true
	for i := range a {
		if !sameFault(other.Draw(OpMul), a[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("seed 43 produced the identical fault stream as seed 42")
	}

	disarmed := NewSchedule(cfg)
	for i := 0; i < 256; i++ {
		if f := disarmed.Draw(OpMul); f != (Fault{}) {
			t.Fatalf("disarmed schedule injected %+v", f)
		}
	}
}

// TestBackendInjection: error and panic draws surface through the
// wrapped backend; with the schedule disarmed the wrapper is
// transparent and capability forwarding works.
func TestBackendInjection(t *testing.T) {
	inner := heclear.New(8, 257)
	sched := NewSchedule(Config{Seed: 7, Default: Rates{Error: 1}})
	b := WrapBackend(inner, sched)

	ct, err := b.Encrypt([]uint64{1, 2, 3})
	if err != nil {
		t.Fatalf("disarmed Encrypt: %v", err)
	}
	if _, err := b.Add(ct, ct); err != nil {
		t.Fatalf("disarmed Add: %v", err)
	}

	sched.Arm(true)
	if _, err := b.Add(ct, ct); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed Add at Error=1: got %v, want ErrInjected", err)
	}
	var inj *InjectedError
	if _, err := b.Mul(ct, ct); !errors.As(err, &inj) || inj.Op != OpMul {
		t.Fatalf("armed Mul: got %v, want *InjectedError{Op: mul}", err)
	}
	sched.Arm(false)

	// Level forwarding: heclear is the level-0 instance, so the wrapper's
	// drop is its identity.
	out, err := b.DropToLevel(ct, 0)
	if err != nil || out != ct {
		t.Fatalf("DropToLevel pass-through: ct=%v err=%v", out, err)
	}

	panicSched := NewSchedule(Config{Seed: 7, Default: Rates{Panic: 1}})
	panicSched.Arm(true)
	pb := WrapBackend(inner, panicSched)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Panic=1 draw did not panic")
			}
		}()
		pb.Rotate(ct, 1)
	}()
}

// TestDiagSumInjection: the fused diagonal sum, the staging of its
// factors and the lazy rotation draw faults like the ops they stand for —
// a product fault for the sum, an encryption or encoding fault for a
// factor, a rotation fault for the rotation — and, disarmed, forward to
// the inner backend (here the clear backend's MulLazy and Add chain, and
// its finished rotation), so a wrapped pass computes what the bare
// backend does.
func TestDiagSumInjection(t *testing.T) {
	inner := heclear.New(8, 257)
	sched := NewSchedule(Config{Seed: 7, Default: Rates{Error: 1}})
	b := WrapBackend(inner, sched)
	var _ he.FactorSummer = b
	var _ he.SetEncrypter = b

	fs, err := b.StageFactorsAtLevel([][]uint64{{1, 2, 3}}, true, 0)
	if err != nil {
		t.Fatalf("disarmed StageFactorsAtLevel: %v", err)
	}
	f := fs[0]
	x, err := b.Encrypt([]uint64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	terms := []he.Term{{Factor: f, X: he.Cipher(x)}, {Factor: f, X: he.Cipher(x)}}
	sum, err := b.MulDiagSum(terms)
	if err != nil {
		t.Fatalf("disarmed MulDiagSum: %v", err)
	}
	got, err := he.Reveal(b, sum)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{8, 20, 36, 0, 0, 0, 0, 0}; !slices.Equal(got, want) {
		t.Fatalf("disarmed MulDiagSum = %v, want %v", got, want)
	}

	rot, err := he.RotateLazy(b, he.Cipher(x), 1)
	if err != nil {
		t.Fatalf("disarmed RotateLazy: %v", err)
	}
	if rot, err = he.Finish(b, rot); err != nil {
		t.Fatalf("disarmed Finish: %v", err)
	}
	if got, err := he.Reveal(b, rot); err != nil || !slices.Equal(got, []uint64{5, 6, 0, 0, 0, 0, 0, 4}) {
		t.Fatalf("disarmed RotateLazy then Finish = %v (%v), want x rotated by one", got, err)
	}

	sched.Arm(true)
	var inj *InjectedError
	if _, err := he.RotateLazy(b, he.Cipher(x), 1); !errors.As(err, &inj) || inj.Op != OpRotate {
		t.Errorf("armed RotateLazy: got %v, want *InjectedError{Op: rotate}", err)
	}
	if _, err := he.MulDiagSum(b, terms); !errors.As(err, &inj) || inj.Op != OpMul {
		t.Errorf("armed MulDiagSum: got %v, want *InjectedError{Op: mul}", err)
	}
	for encrypt, op := range map[bool]Op{true: OpEncrypt, false: OpEncode} {
		if _, err := he.StageFactorsAtLevel(b, [][]uint64{{1}}, encrypt, 0); !errors.As(err, &inj) || inj.Op != op {
			t.Errorf("armed StageFactorsAtLevel (encrypt=%v): got %v, want *InjectedError{Op: %s}", encrypt, err, op)
		}
	}
}

// TestEncryptSetForwarded: a wrapped backend encrypts a set through the
// inner backend's set path, so with no fault drawn a seeded BGV backend
// wrapped returns the bytes the same backend unwrapped makes; armed, the
// set draws an encryption fault.
func TestEncryptSetForwarded(t *testing.T) {
	set := [][]uint64{{1, 2, 3}, {4, 5}, {6}}
	newInner := func() *hebgv.Backend {
		b, err := hebgv.New(hebgv.Config{Params: bgv.TestParams(3), Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bare, inner := newInner(), newInner()
	sched := NewSchedule(Config{Seed: 7, Default: Rates{Error: 1}})
	wrapped := WrapBackend(inner, sched)
	want, err := he.EncryptSetAtLevel(bare, set, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := he.EncryptSetAtLevel(wrapped, set, 1)
	if err != nil {
		t.Fatalf("disarmed EncryptSetAtLevel: %v", err)
	}
	for i := range want {
		w, _, err := bare.ExportCiphertext(want[i])
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := inner.ExportCiphertext(got[i])
		if err != nil {
			t.Fatal(err)
		}
		for c := range w.C {
			if !slices.EqualFunc(g.C[c].Coeffs, w.C[c].Coeffs, slices.Equal) {
				t.Fatalf("ciphertext %d of the wrapped set differs from the bare backend's", i)
			}
		}
	}
	if n := inner.Counts().Encrypt; n != int64(len(set)) {
		t.Errorf("the inner backend counted %d encryptions, want %d", n, len(set))
	}
	sched.Arm(true)
	var inj *InjectedError
	if _, err := he.EncryptSetAtLevel(wrapped, set, 1); !errors.As(err, &inj) || inj.Op != OpEncrypt {
		t.Errorf("armed EncryptSetAtLevel: got %v, want *InjectedError{Op: encrypt}", err)
	}
}

// TestRoundTripperFaults drives each transport fault class at rate 1
// against a live test server.
func TestRoundTripperFaults(t *testing.T) {
	const payload = "0123456789abcdef0123456789abcdef"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	}))
	defer srv.Close()

	get := func(rates Rates) (*http.Response, error) {
		sched := NewSchedule(Config{Seed: 11, Default: rates})
		sched.Arm(true)
		client := &http.Client{Transport: &RoundTripper{Sched: sched}}
		return client.Get(srv.URL)
	}

	if _, err := get(Rates{Reset: 1}); err == nil || !strings.Contains(err.Error(), "connection reset") {
		t.Fatalf("Reset=1: got %v, want connection reset", err)
	}

	resp, err := get(Rates{ServerError: 1})
	if err != nil {
		t.Fatalf("ServerError=1: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ServerError=1: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = get(Rates{Truncate: 1})
	if err != nil {
		t.Fatalf("Truncate=1: %v", err)
	}
	short, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(short) != len(payload)/2 {
		t.Fatalf("Truncate=1: body length %d, want %d", len(short), len(payload)/2)
	}

	resp, err = get(Rates{Garble: 1})
	if err != nil {
		t.Fatalf("Garble=1: %v", err)
	}
	garbled, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(garbled) == payload {
		t.Fatal("Garble=1: body unchanged")
	}
	if len(garbled) != len(payload) {
		t.Fatalf("Garble=1: body length changed %d -> %d", len(payload), len(garbled))
	}
}
