package ring

// The reference layer-at-a-time transforms the fused and vector kernels
// are checked and benchmarked against.

// NTTGeneric is the reference layer-at-a-time forward transform: one
// sweep per butterfly layer plus a final reduction sweep. It computes
// exactly what NTT computes.
func (m *Modulus) NTTGeneric(a []uint64) {
	n := m.N
	q := m.Q
	twoQ := 2 * q
	t := n
	for grp := 1; grp < n; grp <<= 1 {
		t >>= 1
		for i := 0; i < grp; i++ {
			j1 := 2 * i * t
			w := m.psiRev[grp+i]
			ws := m.psiRevS[grp+i]
			// Equal-length subslices let the compiler drop the bounds
			// checks in the butterfly loop.
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
	}
	for i, r := range a {
		if r >= twoQ {
			r -= twoQ
		}
		if r >= q {
			r -= q
		}
		a[i] = r
	}
}

// INTTGeneric is the reference layer-at-a-time inverse transform,
// including the 1/N scaling. It computes exactly what INTT computes.
func (m *Modulus) INTTGeneric(a []uint64) {
	n := m.N
	q := m.Q
	twoQ := 2 * q
	t := 1
	for grp := n >> 1; grp >= 1; grp >>= 1 {
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
	for i := range a {
		r := MulModShoupLazy(a[i], m.nInv, m.nInvS, q)
		if r >= q {
			r -= q
		}
		a[i] = r
	}
}
