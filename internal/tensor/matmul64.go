package tensor

// float64 kernel specializations, mirroring matmul32.go for the
// golden-reference precision: identical blocking and packed-panel
// layout, with the innermost loops on the 2-lane SSE2 float64
// primitives (daxpy4/daxpy1/ddot — scalar off amd64). The generic
// kernels in matmul.go dispatch here for concrete float64 matrices;
// named ~float64 types keep the generic path. Per-row arithmetic is
// identical to the generic kernels' unpaired rows (the same 4-wide
// k-unroll expression) and independent of packing.

// mulRowsF64 is mulRows for float64 — see mulRowsF32 for the panel
// scheme.
func mulRowsF64(dst, a, b *Matrix[float64]) {
	rows, n, kTot := a.Rows, b.Cols, a.Cols
	dst.Zero()
	var panel []float64
	pack := n > blockJ && rows >= panelMinRows
	if pack {
		pp := panelPool64.Get().(*[]float64)
		panel = *pp
		defer panelPool64.Put(pp)
	}
	for k0 := 0; k0 < kTot; k0 += blockK {
		k1 := min(k0+blockK, kTot)
		kext := k1 - k0
		for j0 := 0; j0 < n; j0 += blockJ {
			j1 := min(j0+blockJ, n)
			seg := j1 - j0
			bp, pitch := b.Data[k0*n+j0:], n
			if pack {
				for k := 0; k < kext; k++ {
					copy(panel[k*seg:(k+1)*seg], b.Data[(k0+k)*n+j0:(k0+k)*n+j1])
				}
				bp, pitch = panel, seg
			}
			for i := 0; i < rows; i++ {
				arow := a.Data[i*kTot+k0 : i*kTot+k1]
				drow := dst.Data[i*n+j0 : i*n+j1]
				k := 0
				for ; k+4 <= kext; k += 4 {
					b0 := bp[k*pitch : k*pitch+seg]
					b1 := bp[(k+1)*pitch : (k+1)*pitch+seg]
					b2 := bp[(k+2)*pitch : (k+2)*pitch+seg]
					b3 := bp[(k+3)*pitch : (k+3)*pitch+seg]
					daxpy4(drow, b0, b1, b2, b3, arow[k], arow[k+1], arow[k+2], arow[k+3])
				}
				for ; k < kext; k++ {
					av := arow[k]
					if av == 0 {
						continue
					}
					daxpy1(drow, bp[k*pitch:k*pitch+seg], av)
				}
			}
		}
	}
}

// mulTransAF64 is mulTransARows for float64 — AXPY accumulation of b's
// (already unit-stride) rows weighted by one strided column of a.
func mulTransAF64(dst, a, b *Matrix[float64]) {
	n, kTot, ac := b.Cols, a.Rows, a.Cols
	for i := 0; i < ac; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		k := 0
		for ; k+4 <= kTot; k += 4 {
			a0 := a.Data[k*ac+i]
			a1 := a.Data[(k+1)*ac+i]
			a2 := a.Data[(k+2)*ac+i]
			a3 := a.Data[(k+3)*ac+i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b.Data[k*n : (k+1)*n]
			b1 := b.Data[(k+1)*n : (k+2)*n]
			b2 := b.Data[(k+2)*n : (k+3)*n]
			b3 := b.Data[(k+3)*n : (k+4)*n]
			daxpy4(drow, b0, b1, b2, b3, a0, a1, a2, a3)
		}
		for ; k < kTot; k++ {
			av := a.Data[k*ac+i]
			if av == 0 {
				continue
			}
			daxpy1(drow, b.Data[k*n:(k+1)*n], av)
		}
	}
}

// mulTransBF64 is mulTransBRows for float64 — tiled dot products along
// the shared k axis.
func mulTransBF64(dst, a, b *Matrix[float64]) {
	kTot, dn := a.Cols, b.Rows
	const blockTB = 64
	for j0 := 0; j0 < dn; j0 += blockTB {
		j1 := min(j0+blockTB, dn)
		for i := 0; i < a.Rows; i++ {
			arow := a.Data[i*kTot : (i+1)*kTot]
			drow := dst.Data[i*dn : (i+1)*dn]
			for j := j0; j < j1; j++ {
				drow[j] = ddot(arow, b.Data[j*kTot:(j+1)*kTot])
			}
		}
	}
}

// asF64 reports whether the matrices are concretely float64 (not a
// named ~float64 type) and returns the reinterpreted headers.
func asF64[E Element](dst, a, b *Matrix[E]) (d, x, y *Matrix[float64], ok bool) {
	d, ok = any(dst).(*Matrix[float64])
	if !ok {
		return nil, nil, nil, false
	}
	return d, any(a).(*Matrix[float64]), any(b).(*Matrix[float64]), true
}
