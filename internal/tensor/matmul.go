package tensor

import (
	"fmt"
	"sync"
)

// Matrix-multiplication kernels. Each public entry point (MulInto,
// MulTransAInto, MulTransBInto) validates shapes, then runs a
// cache-blocked, 4-way-unrolled kernel on the calling goroutine: one
// product, one core. The package starts no goroutines — a fork-join
// pool used to shard the rows of large products, bought the 32-row
// train step nothing and cost the control loop its action latency
// (PERF.md "One core by design"); concurrency lives one level up, one
// capesd session per core. The kernels are generic over the element
// type; concrete float32 matrices — the engine's precision — route to
// the SIMD specializations in matmul32.go (tier-dispatched vector inner
// loops plus packed-panel operand layout), while float64 and named
// element types keep the generic scalar path below. The naive reference
// kernels the package started with are kept at the bottom of this file —
// always at their instantiated precision — and the property tests in
// matmul_test.go hold the optimized kernels to float64 references
// within precision-scaled reassociation tolerance on ragged shapes.
//
// Blocking constants: a blockK×blockJ tile of the right-hand operand is
// blockK*blockJ elements — 32 KiB at float32, so L1-resident while
// every destination row pair sweeps it — and the destination row
// segment (blockJ elements) lives in L1 beside it.
// blockK must stay a multiple of 4: the kernels unroll k in quads, and
// only then do the quads fall on the same k's whatever the tile size,
// which is what keeps results independent of it bit for bit.
const (
	blockK = 32
	blockJ = 256
)

// Panel packing: when the right-hand operand is wider than one tile,
// the float32 kernels repack the active blockK×blockJ tile into one of
// these pooled buffers so its rows become contiguous (pitch seg instead
// of b.Cols) and the vector inner loops stream unit-stride memory
// whatever the caller's row pitch. Packing copies each tile element
// once; it pays for itself only when enough destination rows reuse the
// panel, so products with fewer than panelMinRows rows read b directly.
// The pooled pointers keep multiplications allocation-free in steady
// state, one panel per call in flight (sessions multiply concurrently).
const panelMinRows = 8

var panelPool32 = sync.Pool{New: func() any { b := make([]float32, blockK*blockJ); return &b }}

// MulInto computes dst = a·b. dst must be a.Rows × b.Cols and must not
// alias a or b.
func MulInto[E Element](dst, a, b *Matrix[E]) {
	if a.Cols != b.Rows {
		panic(dimErr("Mul", a, b))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: Mul dst is %d×%d, want %d×%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	mulRows(dst, a, b)
}

// MulTransAInto computes dst = aᵀ·b without materializing aᵀ.
// dst must be a.Cols × b.Cols and must not alias a or b.
func MulTransAInto[E Element](dst, a, b *Matrix[E]) {
	if a.Rows != b.Rows {
		panic(dimErr("MulTransA", a, b))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MulTransA dst is %d×%d, want %d×%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	mulTransARows(dst, a, b)
}

// MulTransBInto computes dst = a·bᵀ without materializing bᵀ.
// dst must be a.Rows × b.Rows and must not alias a or b.
func MulTransBInto[E Element](dst, a, b *Matrix[E]) {
	if a.Cols != b.Cols {
		panic(dimErr("MulTransB", a, b))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MulTransB dst is %d×%d, want %d×%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	mulTransBRows(dst, a, b)
}

// mulRows computes dst = a·b: for each destination row,
// accumulate a[i][k]·b[k][*] over k. Tiled over (k, j) so the active
// block of b stays cache-resident across the row sweep, with the k loop
// unrolled 4-wide so four rows of b stream against one load/store of the
// destination segment.
func mulRows[E Element](dst, a, b *Matrix[E]) {
	if d, x, y, ok := asF32(dst, a, b); ok {
		mulRowsF32(d, x, y)
		return
	}
	rows, n, kTot := a.Rows, b.Cols, a.Cols
	dst.Zero()
	for k0 := 0; k0 < kTot; k0 += blockK {
		k1 := k0 + blockK
		if k1 > kTot {
			k1 = kTot
		}
		for j0 := 0; j0 < n; j0 += blockJ {
			j1 := j0 + blockJ
			if j1 > n {
				j1 = n
			}
			// Register-block pairs of destination rows: each element
			// of the streamed b tile feeds two accumulating rows, which
			// halves the dominant b-tile read traffic.
			i := 0
			for ; i+2 <= rows; i += 2 {
				arow0 := a.Data[i*kTot : (i+1)*kTot]
				arow1 := a.Data[(i+1)*kTot : (i+2)*kTot]
				drow0 := dst.Data[i*n+j0 : i*n+j1]
				drow1 := dst.Data[(i+1)*n+j0 : (i+1)*n+j1]
				k := k0
				for ; k+4 <= k1; k += 4 {
					a00, a01, a02, a03 := arow0[k], arow0[k+1], arow0[k+2], arow0[k+3]
					a10, a11, a12, a13 := arow1[k], arow1[k+1], arow1[k+2], arow1[k+3]
					b0 := b.Data[k*n+j0 : k*n+j1]
					b1 := b.Data[(k+1)*n+j0 : (k+1)*n+j1]
					b2 := b.Data[(k+2)*n+j0 : (k+2)*n+j1]
					b3 := b.Data[(k+3)*n+j0 : (k+3)*n+j1]
					for j, bv := range b0 {
						b1v, b2v, b3v := b1[j], b2[j], b3[j]
						drow0[j] += a00*bv + a01*b1v + a02*b2v + a03*b3v
						drow1[j] += a10*bv + a11*b1v + a12*b2v + a13*b3v
					}
				}
				for ; k < k1; k++ {
					a0v, a1v := arow0[k], arow1[k]
					brow := b.Data[k*n+j0 : k*n+j1]
					for j, bv := range brow {
						drow0[j] += a0v * bv
						drow1[j] += a1v * bv
					}
				}
			}
			for ; i < rows; i++ {
				arow := a.Data[i*kTot : (i+1)*kTot]
				drow := dst.Data[i*n+j0 : i*n+j1]
				k := k0
				for ; k+4 <= k1; k += 4 {
					a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
					b0 := b.Data[k*n+j0 : k*n+j1]
					b1 := b.Data[(k+1)*n+j0 : (k+1)*n+j1]
					b2 := b.Data[(k+2)*n+j0 : (k+2)*n+j1]
					b3 := b.Data[(k+3)*n+j0 : (k+3)*n+j1]
					for j, bv := range b0 {
						drow[j] += a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; k < k1; k++ {
					av := arow[k]
					if av == 0 {
						continue
					}
					brow := b.Data[k*n+j0 : k*n+j1]
					for j, bv := range brow {
						drow[j] += av * bv
					}
				}
			}
		}
	}
}

// mulTransARows computes dst = aᵀ·b — row i of dst is
// column i of a dotted against every column of b: dst[i][j] =
// Σ_k a[k][i]·b[k][j]. k (the shared row index of a and b) is unrolled
// 4-wide. The k extent here is a minibatch (≤ a few hundred rows), so b
// fits in cache and no tiling is needed.
func mulTransARows[E Element](dst, a, b *Matrix[E]) {
	if d, x, y, ok := asF32(dst, a, b); ok {
		mulTransAF32(d, x, y)
		return
	}
	n, kTot, ac := b.Cols, a.Rows, a.Cols
	dst.Zero()
	// Register-block pairs of destination rows (adjacent columns of a, so
	// the strided a loads share cache lines): each streamed row of b
	// feeds two accumulating destination rows.
	i := 0
	for ; i+2 <= ac; i += 2 {
		drow0 := dst.Data[i*n : (i+1)*n]
		drow1 := dst.Data[(i+1)*n : (i+2)*n]
		k := 0
		for ; k+2 <= kTot; k += 2 {
			a00, a01 := a.Data[k*ac+i], a.Data[k*ac+i+1]
			a10, a11 := a.Data[(k+1)*ac+i], a.Data[(k+1)*ac+i+1]
			b0 := b.Data[k*n : (k+1)*n]
			b1 := b.Data[(k+1)*n : (k+2)*n]
			for j, bv := range b0 {
				b1v := b1[j]
				drow0[j] += a00*bv + a10*b1v
				drow1[j] += a01*bv + a11*b1v
			}
		}
		for ; k < kTot; k++ {
			a0v, a1v := a.Data[k*ac+i], a.Data[k*ac+i+1]
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow0[j] += a0v * bv
				drow1[j] += a1v * bv
			}
		}
	}
	for ; i < ac; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		k := 0
		for ; k+4 <= kTot; k += 4 {
			a0 := a.Data[k*ac+i]
			a1 := a.Data[(k+1)*ac+i]
			a2 := a.Data[(k+2)*ac+i]
			a3 := a.Data[(k+3)*ac+i]
			b0 := b.Data[k*n : (k+1)*n]
			b1 := b.Data[(k+1)*n : (k+2)*n]
			b2 := b.Data[(k+2)*n : (k+3)*n]
			b3 := b.Data[(k+3)*n : (k+4)*n]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			for j, bv := range b0 {
				drow[j] += a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < kTot; k++ {
			av := a.Data[k*ac+i]
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// mulTransBRows computes dst = a·bᵀ — dot products
// along the shared k axis. j (rows of b) is tiled so the active block of
// b stays cache-resident while every row of a sweeps it, then processed
// two at a time so each load of a feeds two dot products, with four
// independent accumulators per product so the FPU pipelines overlap
// instead of serializing on one sum.
func mulTransBRows[E Element](dst, a, b *Matrix[E]) {
	if d, x, y, ok := asF32(dst, a, b); ok {
		mulTransBF32(d, x, y)
		return
	}
	kTot, dn := a.Cols, b.Rows
	// blockTB rows of b ≈ blockTB·kTot elements resident per tile.
	const blockTB = 64
	for j0 := 0; j0 < dn; j0 += blockTB {
		j1 := j0 + blockTB
		if j1 > dn {
			j1 = dn
		}
		for i := 0; i < a.Rows; i++ {
			arow := a.Data[i*kTot : (i+1)*kTot]
			drow := dst.Data[i*dn : (i+1)*dn]
			j := j0
			for ; j+2 <= j1; j += 2 {
				b0 := b.Data[j*kTot : (j+1)*kTot]
				b1 := b.Data[(j+1)*kTot : (j+2)*kTot]
				var s00, s01, s02, s03 E
				var s10, s11, s12, s13 E
				k := 0
				for ; k+4 <= kTot; k += 4 {
					a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
					s00 += a0 * b0[k]
					s01 += a1 * b0[k+1]
					s02 += a2 * b0[k+2]
					s03 += a3 * b0[k+3]
					s10 += a0 * b1[k]
					s11 += a1 * b1[k+1]
					s12 += a2 * b1[k+2]
					s13 += a3 * b1[k+3]
				}
				s0 := s00 + s01 + s02 + s03
				s1 := s10 + s11 + s12 + s13
				for ; k < kTot; k++ {
					s0 += arow[k] * b0[k]
					s1 += arow[k] * b1[k]
				}
				drow[j] = s0
				drow[j+1] = s1
			}
			for ; j < j1; j++ {
				brow := b.Data[j*kTot : (j+1)*kTot]
				var s0, s1, s2, s3 E
				k := 0
				for ; k+4 <= kTot; k += 4 {
					s0 += arow[k] * brow[k]
					s1 += arow[k+1] * brow[k+1]
					s2 += arow[k+2] * brow[k+2]
					s3 += arow[k+3] * brow[k+3]
				}
				s := s0 + s1 + s2 + s3
				for ; k < kTot; k++ {
					s += arow[k] * brow[k]
				}
				drow[j] = s
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Naive reference kernels — the package's original implementations, kept
// as the golden reference for the kernel-equivalence property tests. At
// float64 they are the canonical results the optimized kernels of both
// precisions are held to (with tolerances scaled by Eps[E]).

func mulNaiveInto[E Element](dst, a, b *Matrix[E]) {
	dst.Zero()
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func mulTransANaiveInto[E Element](dst, a, b *Matrix[E]) {
	dst.Zero()
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*n : (k+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func mulTransBNaiveInto[E Element](dst, a, b *Matrix[E]) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var sum E
			for k, av := range arow {
				sum += av * brow[k]
			}
			drow[j] = sum
		}
	}
}
