//go:build amd64

package tensor

// amd64 vector-primitive dispatch. Per-tier routine inventory:
//
//	routine      scalar                     avx2 (YMM)
//	saxpy4/1     Go                         saxpy4AVX2/saxpy1AVX2
//	saxpy4x2Tile Go loops over 2 × saxpy4   saxpy4x2TileAVX2 (loops in the body)
//	sdot         Go                         sdotAVX2
//	sdotTile     Go loops over sdot         sdot2x2TileAVX2 (loops in the body;
//	                                        k < 8 and odd edges on sdot)
//	adamSweep*   Go                         adamSweepAVX2{,Soft}
//	biasTanh32   Go                         biasTanhAVX2
//	sumSquares8  Go                         sumSquaresAVX2
//	widenSum32   Go                         widenSumAVX2
//	widenMean32  Go                         widenMeanAVX2
//
// The avx512 tier (ZMM) replaces two bodies and runs avx2's for the rest:
//
//	saxpy4x2Tile saxpy4x2TileAVX512 (the last seg % 16 columns under a
//	             lane mask)
//	sdotTile     sdot4x4TileAVX512 over the 4-aligned rows × columns,
//	             the avx2 tile and sdot over the edges
//
// The tiers are gated by the CPUID/XGETBV probe in feature_amd64.go;
// every other amd64 host runs the scalar tier. Go's scalar codegen
// issues one MULSS per element; these kernels issue one VMULPS per 8
// float32s.
//
// Tail-handling rule: every assembly body requires its slice length to
// be a multiple of its lane count (8 float32s, 4 for the float64 widen
// sweeps). The Go wrappers below mask the length down (&^7, &^3), hand
// the aligned prefix to the assembly and finish the remainder with the
// scalar loops from simd.go, so callers never see an alignment
// requirement and len<lane-count slices (the action path's odd widths)
// work on every tier. saxpy4x2TileAVX2 alone takes any length: it
// finishes 8-lane steps with a 4-lane XMM step and single-lane steps,
// so no width comes back to the Go loops; sdot2x2TileAVX2 adds its own
// k % 8 leftovers, after the fold, in sdot's order.
//
// Rounding contract: the vector bodies use only IEEE-exact operations —
// VMULPS/VADDPS/VSUBPS and, in the Adam and tanh sweeps,
// VSQRTPS/VDIVPS — and deliberately issue separate multiply+add instead
// of FMA. The axpy family, the Adam sweep and the bias+tanh sweep
// therefore round identically to the scalar loops element for element,
// wherever the vector/tail boundary falls. sumSquares8 is a reduction
// that stays bit-identical too, because its lane order is its
// definition (sumsquares32.go) rather than a property of the tier. Only
// sdot varies across tiers, by accumulator-order reassociation the
// equivalence tolerances cover. float32(math.Sqrt(float64(x))) in the
// scalar loops equals VSQRTPS(x) bit for bit: float64's 53-bit mantissa
// exceeds the 2·24+2 bits after which the double rounding is exact.

// saxpy4 computes dst[j] += a0·x0[j] + a1·x1[j] + a2·x2[j] + a3·x3[j]
// for j in [0, len(dst)); each xi must be at least as long as dst.
func saxpy4(dst, x0, x1, x2, x3 []float32, a0, a1, a2, a3 float32) {
	j := 0
	if activeTier.Load() >= tierAVX2 {
		if n8 := len(dst) &^ 7; n8 > 0 {
			saxpy4AVX2(dst[:n8], x0, x1, x2, x3, a0, a1, a2, a3)
			j = n8
		}
	}
	for ; j < len(dst); j++ {
		dst[j] += a0*x0[j] + a1*x1[j] + a2*x2[j] + a3*x3[j]
	}
}

// saxpy1 computes dst[j] += a0·x0[j].
func saxpy1(dst, x0 []float32, a0 float32) {
	j := 0
	if activeTier.Load() >= tierAVX2 {
		if n8 := len(dst) &^ 7; n8 > 0 {
			saxpy1AVX2(dst[:n8], x0, a0)
			j = n8
		}
	}
	for ; j < len(dst); j++ {
		dst[j] += a0 * x0[j]
	}
}

// saxpy4x2Tile is saxpy4x2TileCalls (simd.go has the operand layout).
// On the vector tiers the row-pair and k-quad loops run inside one
// assembly call — the call, slice and dispatch glue around a 256-wide
// saxpy4x2 was a sixth of the train step, and around the 5-wide head
// layer's most of its time.
func saxpy4x2Tile(d []float32, dPitch int, a []float32, aRow, aK int, b []float32, bPitch, pairs, quads, seg int, skipZero bool) {
	tier := activeTier.Load()
	if tier < tierAVX2 {
		saxpy4x2TileCalls(d, dPitch, a, aRow, aK, b, bPitch, pairs, quads, seg, skipZero)
		return
	}
	if pairs <= 0 || quads <= 0 || seg <= 0 {
		return
	}
	// The assembly indexes raw pointers: prove the last element of each
	// operand it touches is in range first.
	_ = d[(2*pairs-1)*dPitch+seg-1]
	_ = a[(2*pairs-1)*aRow+(4*quads-1)*aK]
	_ = b[(4*quads-1)*bPitch+seg-1]
	if tier >= tierAVX512 {
		saxpy4x2TileAVX512(&d[0], dPitch, &a[0], aRow, aK, &b[0], bPitch, pairs, quads, seg, skipZero)
		return
	}
	saxpy4x2TileAVX2(&d[0], dPitch, &a[0], aRow, aK, &b[0], bPitch, pairs, quads, seg, skipZero)
}

// sdot returns Σ a[j]·b[j]; len(b) must be ≥ len(a). The reduction
// order is fixed per tier, so results are deterministic within one
// process but differ a few ULPs between scalar and the vector tiers
// (avx512 runs the avx2 body).
func sdot(a, b []float32) float32 {
	if activeTier.Load() >= tierAVX2 {
		if n8 := len(a) &^ 7; n8 > 0 {
			s := sdotAVX2(a[:n8], b)
			for j := n8; j < len(a); j++ {
				s += a[j] * b[j]
			}
			return s
		}
	}
	return sdotScalar(a, b)
}

// sdotTile is sdotTileCalls (simd.go has the operand layout). On the
// vector tiers with k ≥ 8 the register tiles run inside one assembly
// call: on avx512 every row quad × column quad, sixteen dot products
// per pass, then the avx2 tile over the edges it leaves.
func sdotTile(d []float32, dPitch int, a, b []float32, k, rows, cols int) {
	tier := activeTier.Load()
	if tier < tierAVX2 || k < 8 {
		sdotTileCalls(d, dPitch, a, b, k, rows, cols)
		return
	}
	if quads, cquads := rows/4, cols/4; tier >= tierAVX512 && quads > 0 && cquads > 0 {
		// The assembly indexes raw pointers: prove the last element of
		// each operand it touches is in range first.
		_ = d[(4*quads-1)*dPitch+4*cquads-1]
		_ = a[4*quads*k-1]
		_ = b[4*cquads*k-1]
		sdot4x4TileAVX512(&d[0], dPitch, &a[0], &b[0], k, quads, cquads)
		if c := 4 * cquads; c < cols {
			sdotTileAVX2(d[c:], dPitch, a, b[c*k:], k, 4*quads, cols-c)
		}
		if r := 4 * quads; r < rows {
			sdotTileAVX2(d[r*dPitch:], dPitch, a[r*k:], b, k, rows-r, cols)
		}
		return
	}
	sdotTileAVX2(d, dPitch, a, b, k, rows, cols)
}

// sdotTileAVX2 is sdotTile on the avx2 tier: every row pair × column
// pair in one assembly call, four dot products per pass; the odd last
// column and the odd last row stay on sdot. Requires k ≥ 8.
func sdotTileAVX2(d []float32, dPitch int, a, b []float32, k, rows, cols int) {
	pairs, cpairs := rows/2, cols/2
	if pairs > 0 && cpairs > 0 {
		// The assembly indexes raw pointers: prove the last element of
		// each operand it touches is in range first.
		_ = d[(2*pairs-1)*dPitch+2*cpairs-1]
		_ = a[2*pairs*k-1]
		_ = b[2*cpairs*k-1]
		sdot2x2TileAVX2(&d[0], dPitch, &a[0], &b[0], k, pairs, cpairs)
	}
	if j := cols - 1; cols&1 != 0 {
		for i := 0; i < 2*pairs; i++ {
			d[i*dPitch+j] = sdot(a[i*k:(i+1)*k], b[j*k:(j+1)*k])
		}
	}
	if i := rows - 1; rows&1 != 0 {
		sdotTileCalls(d[i*dPitch:], dPitch, a[i*k:], b, k, 1, cols)
	}
}

// sdotChainK is the depth below which sdot is the plain ascending chain
// ((+0 + p0) + p1) + … of its products (simd.go has the argument): below
// one 8-lane vector sdot falls through to sdotScalar on every tier, and
// its four partial sums then hold one product each.
func sdotChainK() int { return 8 }

// adamSweep32 runs the fused Adam moment/step update over the float32
// arenas (see AdamSweep32 in adamsweep.go for the formula).
func adamSweep32(params, grads, fm, fv []float32, lrT, b1, omb1, b2, omb2, eps, scale float32) {
	j := 0
	if activeTier.Load() >= tierAVX2 {
		if n8 := len(params) &^ 7; n8 > 0 {
			adamSweepAVX2(params[:n8], grads, fm, fv, lrT, b1, omb1, b2, omb2, eps, scale)
			j = n8
		}
	}
	if j < len(params) {
		adamSweepScalar(params[j:], grads[j:], fm[j:], fv[j:], lrT, b1, omb1, b2, omb2, eps, scale)
	}
}

// adamSweepSoft32 is adamSweep32 with the fused soft target update
// target[j] = target[j]·(1−α) + p·α.
func adamSweepSoft32(params, grads, fm, fv, target []float32, lrT, b1, omb1, b2, omb2, eps, scale, al, omal float32) {
	j := 0
	if activeTier.Load() >= tierAVX2 {
		if n8 := len(params) &^ 7; n8 > 0 {
			adamSweepSoftAVX2(params[:n8], grads, fm, fv, target, lrT, b1, omb1, b2, omb2, eps, scale, al, omal)
			j = n8
		}
	}
	if j < len(params) {
		adamSweepSoftScalar(params[j:], grads[j:], fm[j:], fv[j:], target[j:], lrT, b1, omb1, b2, omb2, eps, scale, al, omal)
	}
}

// biasTanh32 runs the fused bias-add + FastTanh32 sweep over one row
// (see BiasTanh32 in tanh32.go); len(bias) == len(row).
func biasTanh32(row, bias []float32) {
	j := 0
	if activeTier.Load() >= tierAVX2 {
		if n8 := len(row) &^ 7; n8 > 0 {
			biasTanhAVX2(row[:n8], bias)
			j = n8
		}
	}
	biasTanhScalar(row[j:], bias[j:])
}

// sumSquares8 writes SumSquares32's eight lane sums over x into acc;
// len(x) must be a multiple of 8 (sumsquares32.go owns the tail).
func sumSquares8(x []float32, acc *[8]float64) {
	if activeTier.Load() >= tierAVX2 {
		sumSquaresAVX2(x, acc)
		return
	}
	sumSquaresScalar(x, acc)
}

// widenSum32 runs WidenSum32's sweep (widen32.go); len(src) == len(acc).
func widenSum32(acc []float64, src []float32, first bool) {
	j := 0
	if activeTier.Load() >= tierAVX2 {
		if n4 := len(acc) &^ 3; n4 > 0 {
			widenSumAVX2(acc[:n4], src, first)
			j = n4
		}
	}
	widenSumScalar(acc[j:], src[j:], first)
}

// widenMean32 runs WidenMean32's sweep; acc and last are len(dst) long.
func widenMean32(dst []float32, acc []float64, last []float32, scale float64, div bool) {
	j := 0
	if activeTier.Load() >= tierAVX2 {
		if n4 := len(dst) &^ 3; n4 > 0 {
			widenMeanAVX2(dst[:n4], acc, last, scale, div)
			j = n4
		}
	}
	widenMeanScalar(dst[j:], acc[j:], last[j:], scale, div)
}

// Assembly bodies. Slice lengths must be lane-aligned as described in
// the header; the wrappers above are the only callers.

//go:noescape
func saxpy4AVX2(dst, x0, x1, x2, x3 []float32, a0, a1, a2, a3 float32)

//go:noescape
func saxpy1AVX2(dst, x0 []float32, a0 float32)

//go:noescape
func sdotAVX2(a, b []float32) float32

//go:noescape
func sdot2x2TileAVX2(d *float32, dPitch int, a, b *float32, k, pairs, cols int)

//go:noescape
func saxpy4x2TileAVX2(d *float32, dPitch int, a *float32, aRow, aK int, b *float32, bPitch, pairs, quads, seg int, skipZero bool)

//go:noescape
func saxpy4x2TileAVX512(d *float32, dPitch int, a *float32, aRow, aK int, b *float32, bPitch, pairs, quads, seg int, skipZero bool)

//go:noescape
func sdot4x4TileAVX512(d *float32, dPitch int, a, b *float32, k, quads, cquads int)

//go:noescape
func adamSweepAVX2(params, grads, fm, fv []float32, lrT, b1, omb1, b2, omb2, eps, scale float32)

//go:noescape
func adamSweepSoftAVX2(params, grads, fm, fv, target []float32, lrT, b1, omb1, b2, omb2, eps, scale, al, omal float32)

//go:noescape
func biasTanhAVX2(row, bias []float32)

//go:noescape
func sumSquaresAVX2(x []float32, acc *[8]float64)

//go:noescape
func widenSumAVX2(acc []float64, src []float32, first bool)

//go:noescape
func widenMeanAVX2(dst []float32, acc []float64, last []float32, scale float64, div bool)
