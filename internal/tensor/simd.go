package tensor

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Runtime-dispatched SIMD kernel tiers.
//
// The vector primitives behind the float32 matmul kernels, the fused
// Adam sweep, the bias+tanh activation sweep and the gradient-norm
// reduction come in three tiers, selected once at process start:
//
//	scalar  portable Go loops (every architecture, and amd64 hosts
//	        without AVX2)
//	avx2    8 float32 lanes per YMM register, used only when CPUID+XGETBV
//	        confirm the CPU *and* the OS support AVX state
//	avx512  16 float32 lanes per ZMM register in the two GEMM tiles
//	        (AVX512F only, with the OS saving opmask and ZMM state);
//	        every other routine runs its avx2 body. Every output is
//	        bit-identical to the avx2 tier's (simd_amd64.go)
//
// Only float32 — the engine's precision — has vector kernels. float64
// matrices run the generic Go loops in matmul.go on every tier; they
// are the reference the precision tests hold float32 to.
//
// Detection happens in init (feature_amd64.go); the CAPES_SIMD
// environment variable (scalar|avx2|avx512) overrides it for testing
// and perf triage, clamped to what the host actually supports. KernelTier
// reports the active tier — capesd's /stats and /healthz payloads and
// `capes-inspect -tier` surface it so profiles from different hosts can
// be told apart.
//
// Dispatch contract (see simd_amd64.go for the per-routine details):
// the tier is read per wrapper call, vector bodies run on the largest
// lane-aligned prefix, and the remainder always falls through to the
// scalar loops below. Every vector operation used is IEEE-exact
// (mul/add/sub/sqrt/div are correctly rounded, and the vector kernels
// deliberately use separate VMULPS+VADDPS rather than FMA), so for the
// elementwise primitives — the saxpy family, the Adam sweep and
// BiasTanh32 — every tier produces bit-identical results element for
// element, and SumSquares32 does because its summation order is fixed
// by definition. Only the dot-product reduction differs between scalar
// and avx2 (wider accumulators change the summation order), which the
// precision-scaled equivalence tolerances already cover; avx512 keeps
// avx2's order, so the two vector tiers agree on every bit.
//
// Dot-order contract: within a tier, every float32 MulTransBInto output
// is bit-identical to one lone sdot over its two rows, whichever kernel
// computed it (sdot, a vector tile body or the chain below). Below
// k = 8, sdot is sdotScalar on every tier, and each of its four partial
// sums holds at most one product, sᵢ = +0 + pᵢ. Its result
// ((s0 + s1) + s2) + s3, then + p4 … in ascending order, is then the
// plain chain ((+0 + p0) + p1) + … : the two differ only where a partial
// sum turned a −0 product into +0, and x + (+0) = x + (−0) for every x
// but −0, which the chain never holds (it starts from +0 + p0 ≠ −0, and
// a sum is −0 only when both addends are). That chain is what saxpy1
// accumulates from a zeroed row, so MulTransBInto runs k saxpy1s over a
// packed bᵀ there instead of one short sdot per output. The argument
// needs every product rounded before its addition; targets whose
// compiler may fuse a multiply-add (arm64's FMADD) keep the per-call
// path (sdotChainK in simd_generic.go).

// Kernel tiers, in strictly increasing capability order.
const (
	tierScalar int32 = iota
	tierAVX2
	tierAVX512
)

var tierNames = [...]string{"scalar", "avx2", "avx512"}

// activeTier is the tier the wrapper functions dispatch on. bestTier is
// the host ceiling established at init; forced tiers are clamped to it.
var (
	activeTier atomic.Int32
	bestTier   int32
)

func init() {
	bestTier = detectBestTier()
	activeTier.Store(startTier(os.Getenv("CAPES_SIMD"), bestTier))
}

// startTier is the tier a process starts on: the host ceiling best, or
// the lower tier the CAPES_SIMD value env names. Unknown names and
// tiers above the ceiling keep best: a daemon must not lose its vector
// units to a typo, and CAPES_SIMD=avx512 on a host without AVX-512F
// stays "avx2".
func startTier(env string, best int32) int32 {
	if forced, ok := tierByName(env); ok && forced < best {
		return forced
	}
	return best
}

func tierByName(name string) (int32, bool) {
	for i, n := range tierNames {
		if n == name {
			return int32(i), true
		}
	}
	return 0, false
}

// KernelTier reports the active SIMD tier ("scalar", "avx2" or
// "avx512").
// Perf triage uses it to tell hosts apart: bench baselines are only
// comparable within one tier.
func KernelTier() string { return tierNames[activeTier.Load()] }

// SetKernelTier forces the active tier by name, clamped to what the
// host supports, and returns the tier actually applied. It exists for
// tests (forced-tier equivalence suites) and live triage; unknown names
// error. Not synchronized with kernels already in flight — switch tiers
// only between operations.
func SetKernelTier(name string) (applied string, err error) {
	t, ok := tierByName(name)
	if !ok {
		return KernelTier(), fmt.Errorf("tensor: unknown kernel tier %q (want scalar|avx2|avx512)", name)
	}
	if t > bestTier {
		t = bestTier
	}
	activeTier.Store(t)
	return tierNames[t], nil
}

// ---------------------------------------------------------------------------
// Scalar reference implementations. These are the portable tier, the
// tail handlers for every vector tier, and the golden references the
// forced-tier property tests compare against. The float32 Adam loops
// must mirror the generic loops in nn/adam.go operation for operation —
// same expression tree, same association — so routing a concrete
// float32 sweep through here (at any tier) is bit-invisible.

func saxpy4Scalar(dst, x0, x1, x2, x3 []float32, a0, a1, a2, a3 float32) {
	for j := range dst {
		dst[j] += a0*x0[j] + a1*x1[j] + a2*x2[j] + a3*x3[j]
	}
}

func saxpy1Scalar(dst, x0 []float32, a0 float32) {
	for j := range dst {
		dst[j] += a0 * x0[j]
	}
}

// saxpy4x2 runs saxpy4 for two destination rows against the same four
// operand rows: the unit the blocked matmuls pair rows by. Each row
// rounds exactly as a lone saxpy4 over it.
func saxpy4x2(dst0, dst1, x0, x1, x2, x3 []float32, a00, a01, a02, a03, a10, a11, a12, a13 float32) {
	saxpy4(dst0, x0, x1, x2, x3, a00, a01, a02, a03)
	saxpy4(dst1, x0, x1, x2, x3, a10, a11, a12, a13)
}

// saxpy4x2TileCalls accumulates one operand tile into pairs of
// destination rows: for every row pair p < pairs and k quad q < quads,
// in that order, it runs
//
//	saxpy4x2(d[2p·dPitch:][:seg], d[(2p+1)·dPitch:][:seg],
//	         b[4q·bPitch:][:seg] … b[(4q+3)·bPitch:][:seg],
//	         a[2p·aRow + 4q·aK] … a[2p·aRow + (4q+3)·aK],
//	         a[(2p+1)·aRow + 4q·aK] … a[(2p+1)·aRow + (4q+3)·aK])
//
// so each element of d sees its quads in ascending k. The a strides let
// one routine serve a row-major left operand (aRow = its width, aK = 1)
// and a transposed one (aRow = 1, aK = its width); skipZero drops quads
// whose eight multipliers are all zero. This is saxpy4x2Tile on the
// scalar tier, and the reference the tests hold the vector tile bodies
// to.
func saxpy4x2TileCalls(d []float32, dPitch int, a []float32, aRow, aK int, b []float32, bPitch, pairs, quads, seg int, skipZero bool) {
	for p := 0; p < pairs; p++ {
		d0 := d[2*p*dPitch:][:seg]
		d1 := d[(2*p+1)*dPitch:][:seg]
		a0, a1 := a[2*p*aRow:], a[(2*p+1)*aRow:]
		for k := 0; k < 4*quads; k += 4 {
			a00, a01, a02, a03 := a0[k*aK], a0[(k+1)*aK], a0[(k+2)*aK], a0[(k+3)*aK]
			a10, a11, a12, a13 := a1[k*aK], a1[(k+1)*aK], a1[(k+2)*aK], a1[(k+3)*aK]
			if skipZero && a00 == 0 && a01 == 0 && a02 == 0 && a03 == 0 &&
				a10 == 0 && a11 == 0 && a12 == 0 && a13 == 0 {
				continue
			}
			saxpy4x2(d0, d1,
				b[k*bPitch:][:seg], b[(k+1)*bPitch:][:seg], b[(k+2)*bPitch:][:seg], b[(k+3)*bPitch:][:seg],
				a00, a01, a02, a03, a10, a11, a12, a13)
		}
	}
}

// sdotTileCalls writes one column block of a·bᵀ: for i < rows and
// j < cols, d[i·dPitch + j] = sdot(a[i·k:][:k], b[j·k:][:k]). This is
// sdotTile on the scalar tier, and on the vector tiers for depths below
// 8.
func sdotTileCalls(d []float32, dPitch int, a, b []float32, k, rows, cols int) {
	for i := 0; i < rows; i++ {
		arow, drow := a[i*k:(i+1)*k], d[i*dPitch:]
		for j := 0; j < cols; j++ {
			drow[j] = sdot(arow, b[j*k:(j+1)*k])
		}
	}
}

func sdotScalar(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	j := 0
	for ; j+4 <= len(a); j += 4 {
		s0 += a[j] * b[j]
		s1 += a[j+1] * b[j+1]
		s2 += a[j+2] * b[j+2]
		s3 += a[j+3] * b[j+3]
	}
	s := s0 + s1 + s2 + s3
	for ; j < len(a); j++ {
		s += a[j] * b[j]
	}
	return s
}

func adamSweepScalar(params, grads, fm, fv []float32, lrT, b1, omb1, b2, omb2, eps, scale float32) {
	for j := range params {
		gj := grads[j] * scale
		mj := b1*fm[j] + omb1*gj
		vj := b2*fv[j] + omb2*gj*gj
		fm[j], fv[j] = mj, vj
		params[j] -= lrT * mj / (Sqrt(vj) + eps)
	}
}

func adamSweepSoftScalar(params, grads, fm, fv, target []float32, lrT, b1, omb1, b2, omb2, eps, scale, al, omal float32) {
	for j := range params {
		gj := grads[j] * scale
		mj := b1*fm[j] + omb1*gj
		vj := b2*fv[j] + omb2*gj*gj
		fm[j], fv[j] = mj, vj
		p := params[j] - lrT*mj/(Sqrt(vj)+eps)
		params[j] = p
		target[j] = target[j]*omal + p*al
	}
}
