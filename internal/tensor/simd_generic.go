//go:build !amd64

package tensor

// Portable fallbacks. Non-amd64 builds have no assembly tiers, so the
// best tier is scalar, the CAPES_SIMD knob can only confirm it, and the
// primitive wrappers route straight to the scalar loops in simd.go (the
// compiler may still auto-select wider instructions on some targets).
// The kernel structure above these calls is identical everywhere.

func detectBestTier() int32 { return tierScalar }

func saxpy4(dst, x0, x1, x2, x3 []float32, a0, a1, a2, a3 float32) {
	saxpy4Scalar(dst, x0, x1, x2, x3, a0, a1, a2, a3)
}

func saxpy1(dst, x0 []float32, a0 float32) {
	saxpy1Scalar(dst, x0, a0)
}

func saxpy4x2Tile(d []float32, dPitch int, a []float32, aRow, aK int, b []float32, bPitch, pairs, quads, seg int, skipZero bool) {
	saxpy4x2TileCalls(d, dPitch, a, aRow, aK, b, bPitch, pairs, quads, seg, skipZero)
}

func sdot(a, b []float32) float32 {
	return sdotScalar(a, b)
}

func sdotTile(d []float32, dPitch int, a, b []float32, k, rows, cols int) {
	sdotTileCalls(d, dPitch, a, b, k, rows, cols)
}

// sdotChainK is 0 here: the chain argument in simd.go needs every
// product rounded before its addition, and targets such as arm64 may
// fuse sdotScalar's and saxpy1Scalar's multiply-adds (FMADD) in
// different places, so MulTransBInto keeps its per-call dot path at
// every depth.
func sdotChainK() int { return 0 }

func adamSweep32(params, grads, fm, fv []float32, lrT, b1, omb1, b2, omb2, eps, scale float32) {
	adamSweepScalar(params, grads, fm, fv, lrT, b1, omb1, b2, omb2, eps, scale)
}

func adamSweepSoft32(params, grads, fm, fv, target []float32, lrT, b1, omb1, b2, omb2, eps, scale, al, omal float32) {
	adamSweepSoftScalar(params, grads, fm, fv, target, lrT, b1, omb1, b2, omb2, eps, scale, al, omal)
}

func biasTanh32(row, bias []float32) {
	biasTanhScalar(row, bias)
}

func sumSquares8(x []float32, acc *[8]float64) {
	sumSquaresScalar(x, acc)
}

func widenSum32(acc []float64, src []float32, first bool) {
	widenSumScalar(acc, src, first)
}

func widenMean32(dst []float32, acc []float64, last []float32, scale float64, div bool) {
	widenMeanScalar(dst, acc, last, scale, div)
}
