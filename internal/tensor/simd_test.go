package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Forced-tier property tests: every primitive and kernel must behave on
// every tier the host can run — including non-multiple-of-lane tails,
// len<8 vectors and the packed-panel layouts — and the elementwise
// primitives must match the scalar references bit for bit (the rounding
// contract in simd_amd64.go), not merely within tolerance.

// forEachTier runs f once per kernel tier this host supports, forcing
// the tier for the duration and restoring the original afterwards.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	orig := KernelTier()
	defer SetKernelTier(orig)
	for _, tier := range tierNames {
		applied, err := SetKernelTier(tier)
		if err != nil {
			t.Fatalf("SetKernelTier(%q): %v", tier, err)
		}
		if applied != tier {
			continue // host cannot run this tier; clamped
		}
		t.Run(tier, f)
	}
}

func TestSetKernelTier(t *testing.T) {
	orig := KernelTier()
	defer SetKernelTier(orig)
	for _, name := range []string{"avx1024", "sse", "AVX512"} {
		if _, err := SetKernelTier(name); err == nil {
			t.Fatalf("unknown tier name %q did not error", name)
		}
	}
	applied, err := SetKernelTier("scalar")
	if err != nil || applied != "scalar" || KernelTier() != "scalar" {
		t.Fatalf("force scalar: applied=%q tier=%q err=%v", applied, KernelTier(), err)
	}
	// Forcing above the host ceiling clamps instead of erroring.
	for _, name := range []string{"avx2", "avx512"} {
		applied, err = SetKernelTier(name)
		if err != nil {
			t.Fatal(err)
		}
		if applied != KernelTier() {
			t.Fatalf("applied %q but KernelTier reports %q", applied, KernelTier())
		}
	}
}

// TestForcedTierClampsToHost: CAPES_SIMD and SetKernelTier may lower
// the tier but never raise it past the host's ceiling — a forced avx512
// on an AVX2-only host runs avx2, and on a host without AVX2 scalar —
// and an unknown or empty CAPES_SIMD keeps the detected best. The host
// ceiling is lowered by hand, so this runs on every host.
func TestForcedTierClampsToHost(t *testing.T) {
	for _, c := range []struct {
		env        string
		best, want int32
	}{
		{"avx512", tierAVX2, tierAVX2},
		{"avx512", tierScalar, tierScalar},
		{"avx2", tierAVX512, tierAVX2},
		{"avx2", tierScalar, tierScalar},
		{"scalar", tierAVX512, tierScalar},
		{"avx512", tierAVX512, tierAVX512},
		{"", tierAVX512, tierAVX512},
		{"avx3", tierAVX2, tierAVX2},
	} {
		if got := startTier(c.env, c.best); got != c.want {
			t.Errorf("CAPES_SIMD=%q on a %s host starts on %s, want %s", c.env, tierNames[c.best], tierNames[got], tierNames[c.want])
		}
	}

	orig, origBest := KernelTier(), bestTier
	defer func() { bestTier = origBest; SetKernelTier(orig) }()
	bestTier = min(bestTier, tierAVX2)
	applied, err := SetKernelTier("avx512")
	if err != nil || applied != tierNames[bestTier] || KernelTier() != applied {
		t.Fatalf("SetKernelTier(avx512) below an AVX-512 ceiling: applied=%q tier=%q err=%v, want %q",
			applied, KernelTier(), err, tierNames[bestTier])
	}
}

// sameBitsOnAVX512 runs run on the avx2 tier and then on the avx512
// tier, as subtest "avx512=avx2", and fails unless both return the same
// bits: the avx512 bodies keep avx2's operation order, so no output may
// move, not even a NaN payload. Hosts without AVX-512F skip it.
func sameBitsOnAVX512(t *testing.T, run func(t *testing.T) []float32) {
	t.Helper()
	t.Run("avx512=avx2", func(t *testing.T) {
		if bestTier < tierAVX512 {
			t.Skip("host has no AVX-512F: no avx512 tier to hold to avx2")
		}
		orig := KernelTier()
		defer SetKernelTier(orig)
		SetKernelTier("avx2")
		want := run(t)
		SetKernelTier("avx512")
		got := run(t)
		if len(got) != len(want) {
			t.Fatalf("avx512 returned %d outputs, avx2 %d", len(got), len(want))
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("output %d: avx512 gives %x, avx2 %x", i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	})
}

// simdLens covers empty and len<lane-count slices, exact lane
// multiples of every tier (4, 8, 16) and ragged tails around them.
var simdLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17, 23, 31, 32, 33, 63, 67}

func randSlice32(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.Float64()*2 - 1)
	}
	return s
}

func randSlice64(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64()*2 - 1
	}
	return s
}

// TestAxpyPrimitivesBitIdenticalAcrossTiers: the saxpy family is
// elementwise IEEE-exact, so every tier must agree with the scalar
// reference bit for bit on every length, including tails.
func TestAxpyPrimitivesBitIdenticalAcrossTiers(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(51))
		for _, n := range simdLens {
			x0, x1 := randSlice32(rng, n), randSlice32(rng, n)
			x2, x3 := randSlice32(rng, n), randSlice32(rng, n)
			base := randSlice32(rng, n)
			a0, a1 := float32(rng.NormFloat64()), float32(rng.NormFloat64())
			a2, a3 := float32(rng.NormFloat64()), float32(rng.NormFloat64())

			got, want := append([]float32(nil), base...), append([]float32(nil), base...)
			saxpy4(got, x0, x1, x2, x3, a0, a1, a2, a3)
			saxpy4Scalar(want, x0, x1, x2, x3, a0, a1, a2, a3)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("saxpy4 n=%d deviates at %d: %v vs %v", n, j, got[j], want[j])
				}
			}

			got0 := append([]float32(nil), base...)
			got1 := append([]float32(nil), base...)
			want1 := append([]float32(nil), base...)
			saxpy4x2(got0, got1, x0, x1, x2, x3, a0, a1, a2, a3, a3, a2, a1, a0)
			saxpy4Scalar(want1, x0, x1, x2, x3, a3, a2, a1, a0)
			for j := range want {
				if got0[j] != want[j] || got1[j] != want1[j] {
					t.Fatalf("saxpy4x2 n=%d deviates at %d", n, j)
				}
			}

			got, want = append([]float32(nil), base...), append([]float32(nil), base...)
			saxpy1(got, x0, a0)
			saxpy1Scalar(want, x0, a0)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("saxpy1 n=%d deviates at %d", n, j)
				}
			}

		}
	})
}

// TestDotPrimitivesMatchScalarAcrossTiers: the dot reduction may
// reassociate across tiers, so it is held to the scalar reference
// within an accumulation-scaled tolerance instead of bitwise.
func TestDotPrimitivesMatchScalarAcrossTiers(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(53))
		for _, n := range simdLens {
			a32, b32 := randSlice32(rng, n), randSlice32(rng, n)
			got32 := float64(sdot(a32, b32))
			want32 := float64(sdotScalar(a32, b32))
			if tol := equivTol[float32](n + 1); math.Abs(got32-want32) > tol {
				t.Fatalf("sdot n=%d: %g vs scalar %g (tol %g)", n, got32, want32, tol)
			}
		}
	})
}

// TestAdamSweepBitIdenticalAcrossTiers: SQRTPS/DIVPS are correctly
// rounded, so the vectorized fused Adam sweep must reproduce the scalar
// loops bit for bit at every tier, every length, all three modes. This
// is the contract that lets the deployed float32 engine change kernel
// tiers (or hosts) without changing training trajectories.
func TestAdamSweepBitIdenticalAcrossTiers(t *testing.T) {
	const (
		lrT   = 1.3e-4
		b1    = 0.9
		b2    = 0.999
		eps   = 1e-8
		scale = 0.73
		al    = 0.01
	)
	type state struct{ p, g, fm, fv, tg []float32 }
	mk := func(n int, seed int64) state {
		rng := rand.New(rand.NewSource(seed))
		s := state{
			p: randSlice32(rng, n), g: randSlice32(rng, n),
			fm: randSlice32(rng, n), tg: randSlice32(rng, n),
		}
		s.fv = make([]float32, n)
		for i := range s.fv {
			s.fv[i] = float32(rng.Float64()) // second moments are non-negative
		}
		return s
	}
	clone := func(s state) state {
		return state{
			p:  append([]float32(nil), s.p...),
			g:  append([]float32(nil), s.g...),
			fm: append([]float32(nil), s.fm...),
			fv: append([]float32(nil), s.fv...),
			tg: append([]float32(nil), s.tg...),
		}
	}
	forEachTier(t, func(t *testing.T) {
		for _, n := range simdLens {
			ref := mk(n, int64(100+n))

			plain, want := clone(ref), clone(ref)
			AdamSweep32(plain.p, plain.g, plain.fm, plain.fv, lrT, b1, 1-b1, b2, 1-b2, eps, scale)
			adamSweepScalar(want.p, want.g, want.fm, want.fv, lrT, b1, 1-b1, b2, 1-b2, eps, scale)
			for j := 0; j < n; j++ {
				if plain.p[j] != want.p[j] || plain.fm[j] != want.fm[j] || plain.fv[j] != want.fv[j] {
					t.Fatalf("AdamSweep32 n=%d deviates at %d", n, j)
				}
			}

			soft, wantSoft := clone(ref), clone(ref)
			AdamSweepSoft32(soft.p, soft.g, soft.fm, soft.fv, soft.tg, lrT, b1, 1-b1, b2, 1-b2, eps, scale, al, 1-al)
			adamSweepSoftScalar(wantSoft.p, wantSoft.g, wantSoft.fm, wantSoft.fv, wantSoft.tg, lrT, b1, 1-b1, b2, 1-b2, eps, scale, al, 1-al)
			for j := 0; j < n; j++ {
				if soft.p[j] != wantSoft.p[j] || soft.tg[j] != wantSoft.tg[j] ||
					soft.fm[j] != wantSoft.fm[j] || soft.fv[j] != wantSoft.fv[j] {
					t.Fatalf("AdamSweepSoft32 n=%d deviates at %d", n, j)
				}
			}

			// α = 1: θ⁻·0 + θ·1 leaves the target an exact copy of θ.
			copyAll := clone(ref)
			AdamSweepSoft32(copyAll.p, copyAll.g, copyAll.fm, copyAll.fv, copyAll.tg, lrT, b1, 1-b1, b2, 1-b2, eps, scale, 1, 0)
			for j := 0; j < n; j++ {
				if copyAll.p[j] != want.p[j] || copyAll.tg[j] != want.p[j] {
					t.Fatalf("AdamSweepSoft32 α=1 n=%d deviates at %d", n, j)
				}
			}
		}
	})
	sameBitsOnAVX512(t, func(t *testing.T) []float32 {
		var out []float32
		for _, n := range append(simdLens, 500) {
			plain, soft := mk(n, int64(200+n)), mk(n, int64(200+n))
			AdamSweep32(plain.p, plain.g, plain.fm, plain.fv, lrT, b1, 1-b1, b2, 1-b2, eps, scale)
			AdamSweepSoft32(soft.p, soft.g, soft.fm, soft.fv, soft.tg, lrT, b1, 1-b1, b2, 1-b2, eps, scale, al, 1-al)
			for _, x := range [][]float32{plain.p, plain.fm, plain.fv, soft.p, soft.fm, soft.fv, soft.tg} {
				out = append(out, x...)
			}
		}
		return out
	})
}

// tanhEdgeInputs are the inputs where FastTanh32 changes branch or an
// IEEE special case applies, each with its float32 neighbours on both
// sides: the ±clamp saturation points, the ±0.0004 pass-through
// boundary, ±0, the smallest and largest denormals, the largest finite
// values, ±Inf and NaN.
func tanhEdgeInputs() []float32 {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	edges := []float32{
		0, 7.90531110763549805, 0.0004, 1, 0.5,
		math.SmallestNonzeroFloat32, 1.1754942e-38, 1e-20, math.MaxFloat32,
	}
	out := []float32{nan, -nan, inf, -inf, float32(math.Copysign(0, -1))}
	for _, e := range edges {
		for _, v := range []float32{e, math.Nextafter32(e, inf), math.Nextafter32(e, -inf)} {
			out = append(out, v, -v)
		}
	}
	return out
}

// TestBiasTanh32BitIdenticalAcrossTiers: the vector bodies evaluate
// FastTanh32's clamp, pass-through and rational in the scalar
// expression order with IEEE-exact operations, so BiasTanh32 must equal
// the scalar FastTanh32(row[j]+bias[j]) loop bit for bit — NaN payloads
// and the sign of zero included — on every tier, every length, and with
// every edge input in every lane position.
func TestBiasTanh32BitIdenticalAcrossTiers(t *testing.T) {
	edges := tanhEdgeInputs()
	lens := []int{500}
	for n := 0; n <= 33; n++ {
		lens = append(lens, n)
	}
	check := func(t *testing.T, row, bias []float32) {
		t.Helper()
		want := make([]float32, len(row))
		for j := range row {
			want[j] = FastTanh32(row[j] + bias[j])
		}
		in := append([]float32(nil), row...)
		BiasTanh32(row, bias)
		for j := range want {
			if math.Float32bits(row[j]) != math.Float32bits(want[j]) {
				t.Fatalf("n=%d lane %d: BiasTanh32(%g+%g) = %x, FastTanh32 = %x", len(row), j,
					in[j], bias[j], math.Float32bits(row[j]), math.Float32bits(want[j]))
			}
		}
	}
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(71))
		for _, n := range lens {
			// Pre-activations as the network produces them, then wide
			// enough to saturate, then tiny enough to pass through.
			for _, scale := range []float64{1, 12, 0.0005} {
				row, bias := make([]float32, n), make([]float32, n)
				for j := range row {
					row[j] = float32(rng.NormFloat64() * scale)
					bias[j] = float32(rng.NormFloat64() * scale * 0.1)
				}
				check(t, row, bias)
			}
			// Every edge input through every lane of this length, the
			// other lanes ordinary; a zero bias keeps the edge exact.
			for start := 0; start < len(edges) && n > 0; start += n {
				row, bias := make([]float32, n), make([]float32, n)
				for j := range row {
					row[j] = edges[(start+j)%len(edges)]
				}
				check(t, row, bias)
			}
		}
		// A bias longer than the row is read only up to len(row), and
		// the element after the row is not written.
		row, bias := randSlice32(rng, 20), randSlice32(rng, 24)
		after := row[19]
		BiasTanh32(row[:19], bias)
		if row[19] != after {
			t.Fatal("BiasTanh32 wrote past the row")
		}
	})
	sameBitsOnAVX512(t, func(t *testing.T) []float32 {
		rng := rand.New(rand.NewSource(72))
		var out []float32
		for _, n := range lens {
			row, bias := make([]float32, n), make([]float32, n)
			for j := range row {
				row[j] = float32(rng.NormFloat64() * 4)
				bias[j] = edges[rng.Intn(len(edges))]
			}
			BiasTanh32(row, bias)
			out = append(out, row...)
		}
		return out
	})
}

// TestSumSquares32BitIdenticalAcrossTiers: the sum is defined as eight
// lane sums and one fixed tree, so every tier must return exactly the
// bits of that definition written out naively, at every length; the
// value must agree with the sequential float64 sum to rounding, stay
// finite at the top of the float32 range, and propagate NaN.
func TestSumSquares32BitIdenticalAcrossTiers(t *testing.T) {
	lens := []int{500, 1000, 4099}
	for n := 0; n <= 33; n++ {
		lens = append(lens, n)
	}
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(73))
		for _, n := range lens {
			unit, wide, huge := make([]float32, n), make([]float32, n), make([]float32, n)
			for j := range unit {
				unit[j] = float32(rng.NormFloat64())
				wide[j] = float32(rng.NormFloat64() * math.Exp(rng.NormFloat64()*8))
				huge[j] = math.MaxFloat32
			}
			for k, x := range [][]float32{unit, wide, huge} {
				var s [8]float64
				var seq float64
				for j, v := range x {
					sq := float64(v) * float64(v)
					s[j%8] += sq
					seq += sq
				}
				want := ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
				got := SumSquares32(x)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d input %d: SumSquares32 = %x, lane-blocked definition = %x", n, k, math.Float64bits(got), math.Float64bits(want))
				}
				if math.IsInf(got, 0) || math.Abs(got-seq) > 1e-12*seq {
					t.Fatalf("n=%d input %d: SumSquares32 = %g, sequential sum %g", n, k, got, seq)
				}
				if n > 0 {
					x[n/2] = float32(math.NaN())
					if !math.IsNaN(SumSquares32(x)) {
						t.Fatalf("n=%d input %d: NaN at %d did not propagate", n, k, n/2)
					}
				}
			}
		}
	})
}

// TestWidenSweepsBitIdenticalAcrossTiers: the widening sum and the
// rounding mean are correctly rounded element by element, so on every
// tier and length, from +0.0 or accumulating, dividing or multiplying,
// they must equal the Go loops bit for bit (NaN as NaN-ness), with dot
// edge values in every lane.
func TestWidenSweepsBitIdenticalAcrossTiers(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(79))
		for _, n := range append(simdLens, 512) {
			src, last := randSlice32(rng, n), randSlice32(rng, n)
			for i := range src {
				if rng.Intn(3) == 0 {
					src[i] = dotEdgeValues[rng.Intn(len(dotEdgeValues))]
				}
			}
			base := randSlice64(rng, n)
			for _, first := range []bool{true, false} {
				got, want := append([]float64(nil), base...), append([]float64(nil), base...)
				WidenSum32(got, src, first)
				widenSumScalar(want, src, first)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
						t.Fatalf("WidenSum32 n=%d first=%v: element %d is %v, want %v", n, first, i, got[i], want[i])
					}
				}
				for _, k := range []int{1, 2, 3, 4, 5} {
					out, ref := make([]float32, n), make([]float32, n)
					WidenMean32(out, got, last, k)
					if k&(k-1) == 0 {
						widenMeanScalar(ref, got, last, 1/float64(k), false)
					} else {
						widenMeanScalar(ref, got, last, float64(k), true)
					}
					for i := range ref {
						if !sameFloat32(out[i], ref[i]) {
							t.Fatalf("WidenMean32 n=%d k=%d: element %d is %x, want %x", n, k, i, math.Float32bits(out[i]), math.Float32bits(ref[i]))
						}
					}
				}
			}
		}
	})
}

// TestKernelEquivalenceAcrossTiers drives the full matmul kernels —
// including the packed-panel layouts — against the float64 naive golden
// references on every tier, at both concrete precisions, across ragged
// shapes. panelShapes adds right-hand operands wider than blockJ so the
// pack/no-pack and partial-tile paths all execute.
func TestKernelEquivalenceAcrossTiers(t *testing.T) {
	panelShapes := append([][3]int{
		{panelMinRows, 40, blockJ + 64},     // packed, ragged panel tail
		{panelMinRows - 1, 40, blockJ + 64}, // too thin to pack, same width
		{9, blockK + 5, 2*blockJ + 3},       // packed, odd rows, multi-tile
	}, raggedShapes...)
	forEachTier(t, func(t *testing.T) {
		checkKernelsAgainstGolden[float32](t, panelShapes)
		checkKernelsAgainstGolden[float64](t, panelShapes)
	})
}

// quadOrderMul is the float32 MulInto written out from its definition:
// every element accumulates, from zero and in ascending k, one term per
// k quad — ((a0·b0 + a1·b1) + a2·b2) + a3·b3, multiplies and adds
// rounded separately — then one a·b term per leftover k with a != 0.
func quadOrderMul(dst, a, b *Matrix[float32]) {
	n, kTot := b.Cols, a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*kTot : (i+1)*kTot]
		for j := 0; j < n; j++ {
			var acc float32
			k := 0
			for ; k+4 <= kTot; k += 4 {
				acc += arow[k]*b.Data[k*n+j] + arow[k+1]*b.Data[(k+1)*n+j] + arow[k+2]*b.Data[(k+2)*n+j] + arow[k+3]*b.Data[(k+3)*n+j]
			}
			for ; k < kTot; k++ {
				if arow[k] != 0 {
					acc += arow[k] * b.Data[k*n+j]
				}
			}
			dst.Data[i*n+j] = acc
		}
	}
}

// quadOrderMulTransA is the same for MulTransAInto (dst = aᵀ·b), which
// also skips a quad whose multipliers are all zero: all eight of a
// destination row pair (2p, 2p+1), the four of an odd last row.
func quadOrderMulTransA(dst, a, b *Matrix[float32]) {
	n, kTot, ac := b.Cols, a.Rows, a.Cols
	zeroQuad := func(i, k int) bool {
		return a.Data[k*ac+i] == 0 && a.Data[(k+1)*ac+i] == 0 && a.Data[(k+2)*ac+i] == 0 && a.Data[(k+3)*ac+i] == 0
	}
	for i := 0; i < ac; i++ {
		mate := i ^ 1
		for j := 0; j < n; j++ {
			var acc float32
			k := 0
			for ; k+4 <= kTot; k += 4 {
				if zeroQuad(i, k) && (mate >= ac || zeroQuad(mate, k)) {
					continue
				}
				acc += a.Data[k*ac+i]*b.Data[k*n+j] + a.Data[(k+1)*ac+i]*b.Data[(k+1)*n+j] + a.Data[(k+2)*ac+i]*b.Data[(k+2)*n+j] + a.Data[(k+3)*ac+i]*b.Data[(k+3)*n+j]
			}
			for ; k < kTot; k++ {
				if av := a.Data[k*ac+i]; av != 0 {
					acc += av * b.Data[k*n+j]
				}
			}
			dst.Data[i*n+j] = acc
		}
	}
}

// sameFloat32 is bit equality, except that any NaN equals any NaN:
// which operand's payload an addition of two NaNs keeps is the
// compiler's register choice in the Go loops, not part of the contract.
func sameFloat32(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// tileEdgeValues are the operands the quad order must survive
// unchanged: zeros of both signs (the skip tests), non-finite values
// (what a skipped zero quad must not turn into NaN) and denormals.
var tileEdgeValues = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -1e-40, math.MaxFloat32, 1, -1,
}

// tileOperand fills an r×c matrix with uniform values; sparse zeroes a
// quarter of them and whole leading k quads (rows when byRow, columns
// otherwise) so the zero-skip branches run, edges plants edge values.
func tileOperand(rng *rand.Rand, r, c int, sparse, byRow, edges bool) *Matrix[float32] {
	m := randomMatrix[float32](rng, r, c)
	if sparse {
		for i := range m.Data {
			if rng.Intn(4) == 0 {
				m.Data[i] = 0
			}
		}
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if (byRow && i < 4) || (!byRow && j < 4) {
					m.Data[i*c+j] = 0
				}
			}
		}
	}
	if edges {
		for i := 0; i < 1+len(m.Data)/16; i++ {
			m.Data[rng.Intn(len(m.Data))] = tileEdgeValues[rng.Intn(len(tileEdgeValues))]
		}
	}
	return m
}

// TestMulKernelsBitIdenticalToQuadOrder: the float32 MulInto and
// MulTransAInto must equal their quad-order definitions bit for bit on
// every tier — the vector tile bodies, the scalar tier's per-call
// saxpy4x2 path, the 16-, 8-, 4-lane and single-lane steps, the odd row
// and the leftover k's all land on one answer — and avx512 must equal
// avx2 outright. Widths cover every column remainder mod 16, one full
// and one 244-wide block (the rig's second) and a packed two-block
// product; k covers every remainder up to one k block (every k % 16)
// and two ragged multiples of it.
func TestMulKernelsBitIdenticalToQuadOrder(t *testing.T) {
	widths := []int{244, blockJ, blockJ + 244}
	for n := 1; n <= 33; n++ {
		widths = append(widths, n)
	}
	depths := []int{2*blockK + 3, 3*blockK + 4}
	for k := 1; k <= blockK; k++ {
		depths = append(depths, k)
	}
	// each calls f once per width × depth with that case's operands: a
	// (rows × k) for MulInto, at (k × rows) for MulTransAInto, and b.
	each := func(f func(mode int, a, at, b *Matrix[float32])) {
		rng := rand.New(rand.NewSource(83))
		for _, n := range widths {
			for _, k := range depths {
				rows := []int{1, 2, 5, panelMinRows}[rng.Intn(4)]
				mode := rng.Intn(3) // plain, sparse, sparse with edge values
				sparse, edges := mode > 0, mode > 1
				a := tileOperand(rng, rows, k, sparse, false, edges)
				b := tileOperand(rng, k, n, false, false, edges)
				at := tileOperand(rng, k, rows, sparse, true, edges) // aᵀ·b shares dimension k
				f(mode, a, at, b)
			}
		}
	}
	forEachTier(t, func(t *testing.T) {
		each(func(mode int, a, at, b *Matrix[float32]) {
			rows, k, n := a.Rows, a.Cols, b.Cols
			got, want := New[float32](rows, n), New[float32](rows, n)
			MulInto(got, a, b)
			quadOrderMul(want, a, b)
			for i := range want.Data {
				if !sameFloat32(got.Data[i], want.Data[i]) {
					t.Fatalf("MulInto %dx%dx%d mode %d: element %d is %x, quad order gives %x", rows, k, n, mode, i,
						math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
				}
			}

			MulTransAInto(got, at, b)
			quadOrderMulTransA(want, at, b)
			for i := range want.Data {
				if !sameFloat32(got.Data[i], want.Data[i]) {
					t.Fatalf("MulTransAInto %dx%dx%d mode %d: element %d is %x, quad order gives %x", rows, k, n, mode, i,
						math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
				}
			}
		})
	})
	sameBitsOnAVX512(t, func(t *testing.T) []float32 {
		var out []float32
		each(func(_ int, a, at, b *Matrix[float32]) {
			got := New[float32](a.Rows, b.Cols)
			MulInto(got, a, b)
			out = append(out, got.Data...)
			MulTransAInto(got, at, b)
			out = append(out, got.Data...)
		})
		return out
	})
}

// dotEdgeValues are the operands a dot product must carry through any
// kernel unchanged: zeros of both signs, NaN, infinities, denormals and
// the largest finite values (whose products overflow).
var dotEdgeValues = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1e-40, math.MaxFloat32, -math.MaxFloat32,
}

// TestMulTransBBitIdenticalToSdot: every float32 MulTransBInto output
// must be, bit for bit, one lone sdot of its a row and b row on every
// tier — the avx2 2 × 2 and avx512 4 × 4 tiles with their folds and
// k % 8 leftovers, their edges, the scalar tier's per-output sdot calls,
// and the saxpy1 chain below the vector width (NaNs compared as
// NaN-ness) — and avx512 must equal avx2 outright. Depths cover every
// value up to 33 (every k % 16) and the rig's widths, rows cover 1, odd
// and even, with and without a 4-row remainder, and the b row counts
// straddle the column block and leave every remainder mod 4.
func TestMulTransBBitIdenticalToSdot(t *testing.T) {
	depths := []int{244, 256, 300, 500, 640}
	for k := 1; k <= 33; k++ {
		depths = append(depths, k)
	}
	// each calls f once per depth × row count × mode with its operands.
	each := func(f func(mode int, a, b *Matrix[float32])) {
		rng := rand.New(rand.NewSource(97))
		for _, k := range depths {
			for _, rows := range []int{1, 2, 3, 4, 5, 7, 8} {
				dn := []int{1, 2, 5, 6, 63, 64, 65, 129, 500}[rng.Intn(9)]
				for mode := 0; mode < 3; mode++ { // plain, ±0-sparse, edge values
					a := tileOperand(rng, rows, k, mode > 0, false, false)
					b := tileOperand(rng, dn, k, mode > 0, false, false)
					if mode == 2 {
						for _, m := range []*Matrix[float32]{a, b} {
							for i := 0; i < 1+len(m.Data)/8; i++ {
								m.Data[rng.Intn(len(m.Data))] = dotEdgeValues[rng.Intn(len(dotEdgeValues))]
							}
						}
					}
					f(mode, a, b)
				}
			}
		}
	}
	forEachTier(t, func(t *testing.T) {
		each(func(mode int, a, b *Matrix[float32]) {
			rows, k, dn := a.Rows, a.Cols, b.Rows
			got := New[float32](rows, dn)
			MulTransBInto(got, a, b)
			for i := 0; i < rows; i++ {
				for j := 0; j < dn; j++ {
					want := sdot(a.Data[i*k:(i+1)*k], b.Data[j*k:(j+1)*k])
					if g := got.Data[i*dn+j]; !sameFloat32(g, want) {
						t.Fatalf("%dx%d·(%dx%d)ᵀ mode %d: element (%d,%d) is %x, lone sdot gives %x",
							rows, k, dn, k, mode, i, j, math.Float32bits(g), math.Float32bits(want))
					}
				}
			}
		})
	})
	sameBitsOnAVX512(t, func(t *testing.T) []float32 {
		var out []float32
		each(func(_ int, a, b *Matrix[float32]) {
			got := New[float32](a.Rows, b.Rows)
			MulTransBInto(got, a, b)
			out = append(out, got.Data...)
		})
		return out
	})
}

// TestSaxpy4x2TileMatchesCalls holds the tile entry point to the
// per-call path it replaced, directly: both operand layouts, strides
// wider than the tile, both skip settings, and a guard column after
// every destination row that must not be written.
func TestSaxpy4x2TileMatchesCalls(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(89))
		segs := []int{48, 64, 79, 128, 200, 244, 256} // 16- and 64-column chunks
		for seg := 1; seg <= 33; seg++ {
			segs = append(segs, seg) // every seg % 16
		}
		for _, seg := range segs {
			for _, quads := range []int{1, 2, 8} {
				for _, pairs := range []int{1, 3} {
					for _, transposed := range []bool{false, true} {
						rows, k := 2*pairs, 4*quads
						dPitch, bPitch := seg+1, seg+3
						aRow, aK := k+2, 1
						a := tileOperand(rng, rows, aRow, true, false, true)
						if transposed {
							aRow, aK = 1, rows+1
							a = tileOperand(rng, k, aK, true, true, true)
						}
						b := tileOperand(rng, k, bPitch, false, false, true)
						base := randSlice32(rng, rows*dPitch)
						for _, skip := range []bool{false, true} {
							got := append([]float32(nil), base...)
							want := append([]float32(nil), base...)
							saxpy4x2Tile(got, dPitch, a.Data, aRow, aK, b.Data, bPitch, pairs, quads, seg, skip)
							saxpy4x2TileCalls(want, dPitch, a.Data, aRow, aK, b.Data, bPitch, pairs, quads, seg, skip)
							for i := range want {
								if !sameFloat32(got[i], want[i]) {
									t.Fatalf("seg=%d quads=%d pairs=%d transposed=%v skip=%v: element %d is %x, per-call path gives %x",
										seg, quads, pairs, transposed, skip, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
								}
								if i%dPitch == seg && got[i] != base[i] {
									t.Fatalf("seg=%d: tile wrote the guard column of row %d", seg, i/dPitch)
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestMulIntoPackedMatchesUnpacked pins the packing invariant: the
// panel changes memory layout, never arithmetic. Products computed
// through the packed path (enough rows to pack) must equal row-group
// products below panelMinRows (unpacked) bit for bit.
func TestMulIntoPackedMatchesUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const rows, k, n = 4 * panelMinRows, 37, blockJ + 96
	a := randomMatrix[float32](rng, rows, k)
	b := randomMatrix[float32](rng, k, n)
	packed := New[float32](rows, n)
	MulInto(packed, a, b) // rows ≥ panelMinRows and n > blockJ → packs

	group := New[float32](2, n) // 2 rows < panelMinRows → direct reads
	for r := 0; r < rows; r += 2 {
		ga := FromSlice(2, k, a.Data[r*k:(r+2)*k])
		MulInto(group, ga, b)
		for j, v := range group.Data {
			if packed.Data[r*n+j] != v {
				t.Fatalf("packed row %d deviates at %d: %v vs %v", r+j/n, j%n, packed.Data[r*n+j], v)
			}
		}
	}
}

// TestMulIntoPanelAllocFree: panel packing recycles pooled buffers, so
// steady-state large float32 multiplications stay 0 allocs/op (the
// end-to-end TrainStep alloc tests depend on it).
func TestMulIntoPanelAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; panel recycling cannot be asserted")
	}
	rng := rand.New(rand.NewSource(61))
	a32 := randomMatrix[float32](rng, 32, 640)
	b32 := randomMatrix[float32](rng, 640, 640)
	dst32 := New[float32](32, 640)
	MulInto(dst32, a32, b32) // warm the pool
	if n := testing.AllocsPerRun(20, func() {
		MulInto(dst32, a32, b32)
	}); n != 0 {
		t.Fatalf("packed MulInto allocates %v per run", n)
	}
}

// BenchmarkAdamSweep measures the fused optimizer sweep alone (the
// ~11%-of-train-step share PERF.md tracks) at the deployed precision.
func BenchmarkAdamSweep(b *testing.B) {
	const n = 640*640*2 + 640*5 // ≈ the obs256 Q-network arena
	rng := rand.New(rand.NewSource(1))
	params, grads := randSlice32(rng, n), randSlice32(rng, n)
	fm, fv := make([]float32, n), make([]float32, n)
	target := make([]float32, n)
	b.Run("f32/soft", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(4 * n))
		for i := 0; i < b.N; i++ {
			AdamSweepSoft32(params, grads, fm, fv, target, 1e-4, 0.9, 0.1, 0.999, 0.001, 1e-8, 1, 0.01, 0.99)
		}
	})
}

// BenchmarkBiasTanh32 measures the fused bias+tanh sweep over one
// hidden layer's activations at the paper-rig shape (minibatch 32 ×
// width 500) — the scalar FastTanh32 loop was 11 % of that train step.
func BenchmarkBiasTanh32(b *testing.B) {
	const rows, cols = 32, 500
	rng := rand.New(rand.NewSource(1))
	pre, bias := randSlice32(rng, rows*cols), randSlice32(rng, cols)
	out := make([]float32, rows*cols)
	b.ReportAllocs()
	b.SetBytes(4 * rows * cols)
	for i := 0; i < b.N; i++ {
		copy(out, pre)
		for r := 0; r < rows; r++ {
			BiasTanh32(out[r*cols:(r+1)*cols], bias)
		}
	}
}
