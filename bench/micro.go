package main

import (
	"fmt"
	"time"

	"copse/internal/bgv"
	"copse/internal/ring"
)

// Microkernel geometry: the SecurityTest ring (logN 11) on a 14-prime
// chain. hi is the top of the chain, where single-compare's ct-ct
// multiplies run; lo is the 8-limb region the mat-vec stages run in
// after the level plan has dropped them.
const (
	microLevels = 14
	hiLimbs     = 14
	loLimbs     = 8
	hoistSteps  = 8
)

// kernelTimer times a fixed number of calls per kernel and reports the
// median.
type kernelTimer int

// median returns the median duration in µs of the timer's calls of run.
// prep, when non-nil, runs untimed before each call (fresh input for
// kernels that consume theirs).
func (calls kernelTimer) median(prep, run func()) float64 {
	times := make([]float64, calls)
	for i := range times {
		if prep != nil {
			prep()
		}
		start := time.Now()
		run()
		times[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(times)
}

// ringKernels times direct calls on a ring.Context (serial: no worker
// pool attached, so the numbers are per-core kernel cost).
func ringKernels(out map[string]float64, timeCalls kernelTimer) error {
	params, err := bgv.NewParameters(bgv.TestParams(microLevels))
	if err != nil {
		return err
	}
	ctx := params.RingCtx
	sampler := ring.NewSeededSampler(ctx, 1)
	for _, c := range []struct {
		suffix string
		limbs  int
	}{{"hi", hiLimbs}, {"lo", loLimbs}} {
		p := sampler.UniformPoly(c.limbs-1, false)
		out["ring.ntt_us."+c.suffix] = timeCalls.median(nil, func() { ctx.NTT(p); p.IsNTT = false })
		src := sampler.UniformPoly(c.limbs-1, false)
		out["ring.decompose_us."+c.suffix] = timeCalls.median(nil, func() {
			ctx.PutPolys(ctx.DecomposeBase2w(src, params.DigitBits))
		})
	}
	p := sampler.UniformPoly(hiLimbs-1, true)
	out["ring.intt_us.hi"] = timeCalls.median(nil, func() { ctx.INTT(p); p.IsNTT = true })
	a, b := sampler.UniformPoly(hiLimbs-1, true), sampler.UniformPoly(hiLimbs-1, true)
	dst := ctx.NewPoly(hiLimbs - 1)
	out["ring.mulcoeffs_us.hi"] = timeCalls.median(nil, func() { ctx.MulCoeffs(a, b, dst) })
	var sw *ring.Poly
	out["ring.modswitch_us.hi"] = timeCalls.median(func() { sw = a.Copy() }, func() { ctx.ModSwitchDown(sw) })

	// logN 15 x 12 limbs: the transform no longer fits L2, the regime
	// Security128 runs in.
	const bigLogN, bigLimbs = 15, 12
	primes, err := ring.GeneratePrimes(55, uint64(2<<bigLogN)*params.T, bigLimbs)
	if err != nil {
		return err
	}
	big, err := ring.NewContext(bigLogN, primes, params.T)
	if err != nil {
		return err
	}
	bp := ring.NewSeededSampler(big, 1).UniformPoly(bigLimbs-1, false)
	out["ring.ntt_us.n15"] = timeCalls.median(nil, func() { big.NTT(bp); bp.IsNTT = false })
	return nil
}

// bgvKernels times direct Evaluator/Encryptor/Decryptor calls.
func bgvKernels(out map[string]float64, timeCalls kernelTimer) error {
	params, err := bgv.NewParameters(bgv.TestParams(microLevels))
	if err != nil {
		return err
	}
	kg := bgv.NewSeededKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	steps := make([]int, hoistSteps)
	for i := range steps {
		steps[i] = i + 1
	}
	keys, err := kg.GenEvaluationKeys(sk, steps)
	if err != nil {
		return err
	}
	encoder, err := bgv.NewEncoder(params)
	if err != nil {
		return err
	}
	encryptor := bgv.NewSeededEncryptor(params, pk, 2)
	decryptor := bgv.NewDecryptor(params, sk)
	ev := bgv.NewEvaluator(params, keys)

	vals := make([]uint64, params.Slots())
	for i := range vals {
		vals[i] = uint64(i % 2)
	}
	pt, err := encoder.Encode(vals)
	if err != nil {
		return err
	}
	atLimbs := func(limbs int) (*bgv.Ciphertext, error) {
		ct := encryptor.Encrypt(pt)
		return ct, ev.DropToLevel(ct, limbs-1)
	}
	var callErr error
	try := func(err error) {
		if err != nil && callErr == nil {
			callErr = err
		}
	}
	for _, c := range []struct {
		suffix string
		limbs  int
	}{{"hi", hiLimbs}, {"lo", loLimbs}} {
		ct, err := atLimbs(c.limbs)
		if err != nil {
			return err
		}
		out["bgv.mul_relin_us."+c.suffix] = timeCalls.median(nil, func() { _, err := ev.Mul(ct, ct); try(err) })
		out["bgv.rotate_us."+c.suffix] = timeCalls.median(nil, func() { _, err := ev.Rotate(ct, 1); try(err) })
	}
	lo, err := atLimbs(loLimbs)
	if err != nil {
		return err
	}
	out["bgv.rotate_hoisted_us_per_step.lo"] = timeCalls.median(nil, func() { _, err := ev.RotateHoisted(lo, steps); try(err) }) / hoistSteps
	out["bgv.mulplain_us.lo"] = timeCalls.median(nil, func() { _, err := ev.MulPlain(lo, pt); try(err) })
	hi := encryptor.Encrypt(pt)
	var sw *bgv.Ciphertext
	out["bgv.modswitch_us.hi"] = timeCalls.median(func() { sw = hi.Copy() }, func() { try(ev.ModSwitch(sw)) })
	out["bgv.encrypt_us.hi"] = timeCalls.median(nil, func() { encryptor.Encrypt(pt) })
	l2, err := atLimbs(2)
	if err != nil {
		return err
	}
	out["bgv.decrypt_us.l2"] = timeCalls.median(nil, func() { decryptor.Decrypt(l2) })
	if callErr != nil {
		return fmt.Errorf("bench: bgv microkernel: %w", callErr)
	}
	return nil
}
