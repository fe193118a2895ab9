package tensor

// Exported float32→float64 widening sweeps for nn.ReduceMean, the
// cluster leader's gradient reduction. nn owns the contract (per
// element: start from +0.0, add each rank's value widened to float64 in
// ascending rank order, divide by the rank count, round once); these are
// its two passes, on the active SIMD tier (VCVTPS2PD/VADDPD/VMULPD/
// VDIVPD/VCVTPD2PS on avx2). Every operation is correctly rounded and
// the Go loops below spell out the same expression, so each tier is
// bit-identical to them element for element (NaN payloads aside: which
// operand's payload an addition of two NaNs keeps is the instruction's
// choice).

// WidenSum32 adds src into the float64 partial sums: acc[i] += src[i],
// or acc[i] = 0 + src[i] when first — the sum starts from +0.0, so a
// lone −0 comes out +0. len(src) must be len(acc).
func WidenSum32(acc []float64, src []float32, first bool) {
	widenSum32(acc, src[:len(acc)], first)
}

// WidenMean32 finishes the reduction: dst[i] = (acc[i] + last[i]) / k
// rounded once to float32, with last the final rank's values. For a
// power-of-two k it multiplies by 1/k, the same correctly rounded value;
// for any other k only the division is. len(acc) and len(last) must be
// len(dst); k ≥ 1.
func WidenMean32(dst []float32, acc []float64, last []float32, k int) {
	if k&(k-1) == 0 {
		widenMean32(dst, acc[:len(dst)], last[:len(dst)], 1/float64(k), false)
		return
	}
	widenMean32(dst, acc[:len(dst)], last[:len(dst)], float64(k), true)
}

func widenSumScalar(acc []float64, src []float32, first bool) {
	if first {
		for i, v := range src {
			acc[i] = 0 + float64(v)
		}
		return
	}
	for i, v := range src {
		acc[i] += float64(v)
	}
}

// widenMeanScalar divides by scale when div, else multiplies by it.
func widenMeanScalar(dst []float32, acc []float64, last []float32, scale float64, div bool) {
	if div {
		for i, v := range acc {
			dst[i] = float32((v + float64(last[i])) / scale)
		}
		return
	}
	for i, v := range acc {
		dst[i] = float32((v + float64(last[i])) * scale)
	}
}
