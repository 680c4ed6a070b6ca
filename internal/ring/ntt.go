package ring

// Negacyclic NTT kernels, on the Harvey lazy-reduction butterflies
// (intermediates in [0, 4q), a single final reduction into [0, q),
// requiring q < 2^62 which NewModulus guarantees). The first two and last
// two butterfly layers are each merged into one fused radix-4-style pass
// that keeps four elements in registers across both layers, and the
// final full-reduction (forward) / 1/N-scaling (inverse) sweep is folded
// into the last fused pass. A logN-layer transform therefore makes
// logN−2 passes over the array instead of logN+1, cutting memory traffic
// where the serial kernel is bound by it. The reference layer-at-a-time
// sweeps the tests check them against live in ntt_ref_test.go.

// NTT transforms a in place from coefficient to evaluation (NTT) domain.
// The output is in bit-reversed order, following the standard iterative
// Cooley-Tukey decimation-in-time negacyclic transform.
func (m *Modulus) NTT(a []uint64) {
	if t := m.kernels(); t != tierScalar {
		m.nttVec(t, a)
		return
	}
	m.nttScalar(a)
}

// nttScalar is the fused scalar forward transform — the portable
// implementation and the bit-identity reference for the vector tiers.
func (m *Modulus) nttScalar(a []uint64) {
	n := m.N
	q := m.Q
	twoQ := 2 * q

	// Fused pass 1: layers grp=1 (t=n/2) and grp=2 (t=n/4). Elements
	// (j, j+n/4, j+n/2, j+3n/4) meet in both layers, so one sweep over
	// [0, n/4) covers both.
	quarter := n >> 2
	w1, w1s := m.psiRev[1], m.psiRevS[1]
	w2, w2s := m.psiRev[2], m.psiRevS[2]
	w3, w3s := m.psiRev[3], m.psiRevS[3]
	{
		x0 := a[0:quarter:quarter]
		x1 := a[quarter : 2*quarter : 2*quarter]
		x2 := a[2*quarter : 3*quarter : 3*quarter]
		x3 := a[3*quarter : n : n]
		for j, u0 := range x0 {
			// grp=1: (a0,a2) and (a1,a3) against w1.
			if u0 >= twoQ {
				u0 -= twoQ
			}
			v0 := MulModShoupLazy(x2[j], w1, w1s, q)
			b0, b2 := u0+v0, u0-v0+twoQ
			u1 := x1[j]
			if u1 >= twoQ {
				u1 -= twoQ
			}
			v1 := MulModShoupLazy(x3[j], w1, w1s, q)
			b1, b3 := u1+v1, u1-v1+twoQ
			// grp=2: (b0,b1) against w2, (b2,b3) against w3.
			if b0 >= twoQ {
				b0 -= twoQ
			}
			v0 = MulModShoupLazy(b1, w2, w2s, q)
			x0[j], x1[j] = b0+v0, b0-v0+twoQ
			if b2 >= twoQ {
				b2 -= twoQ
			}
			v1 = MulModShoupLazy(b3, w3, w3s, q)
			x2[j], x3[j] = b2+v1, b2-v1+twoQ
		}
	}

	// Middle layers grp=4 .. n/8 (t = n/8 .. 4), the reference sweep.
	t := n >> 3
	for grp := 4; grp < quarter; grp <<= 1 {
		for i := 0; i < grp; i++ {
			j1 := 2 * i * t
			w := m.psiRev[grp+i]
			ws := m.psiRevS[grp+i]
			x := a[j1 : j1+t : j1+t]
			y := a[j1+t : j1+2*t : j1+2*t]
			for j, u := range x {
				if u >= twoQ {
					u -= twoQ
				}
				v := MulModShoupLazy(y[j], w, ws, q)
				x[j] = u + v
				y[j] = u - v + twoQ
			}
		}
		t >>= 1
	}

	// Fused pass 2: layers grp=n/4 (t=2) and grp=n/2 (t=1), with the
	// final reduction into [0, q) folded in. Block i covers elements
	// 4i..4i+3.
	half := n >> 1
	for i := 0; i < quarter; i++ {
		j1 := 4 * i
		w, ws := m.psiRev[quarter+i], m.psiRevS[quarter+i]
		// t=2: (a0,a2) and (a1,a3) against w.
		u0 := a[j1]
		if u0 >= twoQ {
			u0 -= twoQ
		}
		v0 := MulModShoupLazy(a[j1+2], w, ws, q)
		b0, b2 := u0+v0, u0-v0+twoQ
		u1 := a[j1+1]
		if u1 >= twoQ {
			u1 -= twoQ
		}
		v1 := MulModShoupLazy(a[j1+3], w, ws, q)
		b1, b3 := u1+v1, u1-v1+twoQ
		// t=1: (b0,b1) against psiRev[n/2+2i], (b2,b3) against the next.
		wa, was := m.psiRev[half+2*i], m.psiRevS[half+2*i]
		if b0 >= twoQ {
			b0 -= twoQ
		}
		v0 = MulModShoupLazy(b1, wa, was, q)
		c0, c1 := b0+v0, b0-v0+twoQ
		wb, wbs := m.psiRev[half+2*i+1], m.psiRevS[half+2*i+1]
		if b2 >= twoQ {
			b2 -= twoQ
		}
		v1 = MulModShoupLazy(b3, wb, wbs, q)
		c2, c3 := b2+v1, b2-v1+twoQ
		a[j1] = reduce4Q(c0, q, twoQ)
		a[j1+1] = reduce4Q(c1, q, twoQ)
		a[j1+2] = reduce4Q(c2, q, twoQ)
		a[j1+3] = reduce4Q(c3, q, twoQ)
	}
}

// reduce4Q reduces r ∈ [0, 4q) into [0, q).
func reduce4Q(r, q, twoQ uint64) uint64 {
	if r >= twoQ {
		r -= twoQ
	}
	if r >= q {
		r -= q
	}
	return r
}

// INTT transforms a in place from NTT (bit-reversed) back to coefficient
// domain, including the 1/N scaling. It is the exact inverse of NTT.
func (m *Modulus) INTT(a []uint64) {
	if t := m.kernels(); t != tierScalar {
		m.inttVec(t, a)
		return
	}
	m.inttScalar(a)
}

// inttScalar is the fused scalar inverse transform — the portable
// implementation and the bit-identity reference for the vector tiers.
func (m *Modulus) inttScalar(a []uint64) {
	n := m.N
	q := m.Q
	twoQ := 2 * q

	// Fused pass 1: layers grp=n/2 (t=1) and grp=n/4 (t=2). Block i
	// covers elements 4i..4i+3.
	quarter := n >> 2
	half := n >> 1
	for i := 0; i < quarter; i++ {
		j1 := 4 * i
		// t=1: (a0,a1) against psiInvRev[n/2+2i], (a2,a3) against the next.
		wa, was := m.psiInvRev[half+2*i], m.psiInvRevS[half+2*i]
		u0, v0 := a[j1], a[j1+1]
		b0 := u0 + v0
		if b0 >= twoQ {
			b0 -= twoQ
		}
		b1 := MulModShoupLazy(u0-v0+twoQ, wa, was, q)
		wb, wbs := m.psiInvRev[half+2*i+1], m.psiInvRevS[half+2*i+1]
		u1, v1 := a[j1+2], a[j1+3]
		b2 := u1 + v1
		if b2 >= twoQ {
			b2 -= twoQ
		}
		b3 := MulModShoupLazy(u1-v1+twoQ, wb, wbs, q)
		// t=2: (b0,b2) and (b1,b3) against psiInvRev[n/4+i].
		w2, w2s := m.psiInvRev[quarter+i], m.psiInvRevS[quarter+i]
		c0 := b0 + b2
		if c0 >= twoQ {
			c0 -= twoQ
		}
		a[j1] = c0
		a[j1+2] = MulModShoupLazy(b0-b2+twoQ, w2, w2s, q)
		c1 := b1 + b3
		if c1 >= twoQ {
			c1 -= twoQ
		}
		a[j1+1] = c1
		a[j1+3] = MulModShoupLazy(b1-b3+twoQ, w2, w2s, q)
	}

	// Middle layers grp=n/8 .. 4 (t = 4 .. n/16), the reference sweep.
	t := 4
	for grp := n >> 3; grp >= 4; grp >>= 1 {
		j1 := 0
		for i := 0; i < grp; i++ {
			w := m.psiInvRev[grp+i]
			ws := m.psiInvRevS[grp+i]
			x := a[j1 : j1+t : j1+t]
			y := a[j1+t : j1+2*t : j1+2*t]
			for j, u := range x {
				v := y[j]
				r := u + v
				if r >= twoQ {
					r -= twoQ
				}
				x[j] = r
				y[j] = MulModShoupLazy(u-v+twoQ, w, ws, q)
			}
			j1 += 2 * t
		}
		t <<= 1
	}

	// Fused pass 2: layers grp=2 (t=n/4) and grp=1 (t=n/2), with the
	// 1/N scaling and final reduction folded in. Elements
	// (j, j+n/4, j+n/2, j+3n/4) meet in both layers.
	w1, w1s := m.psiInvRev[1], m.psiInvRevS[1]
	w2, w2s := m.psiInvRev[2], m.psiInvRevS[2]
	w3, w3s := m.psiInvRev[3], m.psiInvRevS[3]
	nInv, nInvS := m.nInv, m.nInvS
	{
		x0 := a[0:quarter:quarter]
		x1 := a[quarter : 2*quarter : 2*quarter]
		x2 := a[2*quarter : 3*quarter : 3*quarter]
		x3 := a[3*quarter : n : n]
		for j, u0 := range x0 {
			// grp=2: (a0,a1) against w2, (a2,a3) against w3.
			v0 := x1[j]
			b0 := u0 + v0
			if b0 >= twoQ {
				b0 -= twoQ
			}
			b1 := MulModShoupLazy(u0-v0+twoQ, w2, w2s, q)
			u1, v1 := x2[j], x3[j]
			b2 := u1 + v1
			if b2 >= twoQ {
				b2 -= twoQ
			}
			b3 := MulModShoupLazy(u1-v1+twoQ, w3, w3s, q)
			// grp=1: (b0,b2) and (b1,b3) against w1, then scale by 1/N.
			c0 := b0 + b2
			if c0 >= twoQ {
				c0 -= twoQ
			}
			x0[j] = scaleReduce(c0, nInv, nInvS, q)
			x2[j] = scaleReduce(MulModShoupLazy(b0-b2+twoQ, w1, w1s, q), nInv, nInvS, q)
			c1 := b1 + b3
			if c1 >= twoQ {
				c1 -= twoQ
			}
			x1[j] = scaleReduce(c1, nInv, nInvS, q)
			x3[j] = scaleReduce(MulModShoupLazy(b1-b3+twoQ, w1, w1s, q), nInv, nInvS, q)
		}
	}
}

// scaleReduce multiplies by 1/N (Shoup) and reduces into [0, q).
func scaleReduce(x, nInv, nInvS, q uint64) uint64 {
	r := MulModShoupLazy(x, nInv, nInvS, q)
	if r >= q {
		r -= q
	}
	return r
}
