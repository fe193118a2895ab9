package tensor

// FastTanh32 is a float32 tanh for the fused activation sweeps: the
// 13/6 rational (Padé-style) approximation used by Eigen and TensorFlow
// for their vectorized float32 tanh, accurate to a few float32 ulps
// across the whole range (|error| ≲ 1e-7 — the same order as the
// rounding of the float32 pipeline that surrounds it, so swapping it in
// for math.Tanh does not change the precision class of the network).
// The float64 path keeps math.Tanh as the reference: the cross-precision
// forward-equivalence tests hold the two within precision-scaled
// tolerance.
//
// Compared to math.Tanh (a float64 routine with an exp call inside) it
// is pure float32 polynomial arithmetic — ~10 FLOPs and a divide, no
// call — which matters because tanh sits on both hot paths: the
// hidden-layer sweep of every train step and of every per-tick action
// forward.
func FastTanh32(x float32) float32 {
	// Outside ±7.905… float32 tanh is 1.0 to the last ulp.
	const clamp = 7.90531110763549805
	if x > clamp {
		x = clamp
	} else if x < -clamp {
		x = -clamp
	}
	// For tiny inputs tanh(x) = x at float32 precision; also keeps x²
	// away from denormals.
	if x > -0.0004 && x < 0.0004 {
		return x
	}
	const (
		a1  = 4.89352455891786e-03
		a3  = 6.37261928875436e-04
		a5  = 1.48572235717979e-05
		a7  = 5.12229709037114e-08
		a9  = -8.60467152213735e-11
		a11 = 2.00018790482477e-13
		a13 = -2.76076847742355e-16

		b0 = 4.89352518554385e-03
		b2 = 2.26843463243900e-03
		b4 = 1.18534705686654e-04
		b6 = 1.19825839466702e-06
	)
	x2 := x * x
	p := x2*a13 + a11
	p = x2*p + a9
	p = x2*p + a7
	p = x2*p + a5
	p = x2*p + a3
	p = x2*p + a1
	p = x * p
	q := x2*b6 + b4
	q = x2*q + b2
	q = x2*q + b0
	return p / q
}

// BiasTanh32 is the fused bias-add + tanh sweep of a float32 Dense
// layer: row[j] = FastTanh32(row[j] + bias[j]) for every j in row
// (bias must be at least as long). It runs on the active SIMD tier and
// is bit-identical to that scalar loop on every tier and for every
// input — NaN, ±Inf, −0, denormals and ragged tails included — because
// the vector bodies evaluate the same clamp, the same tiny-input
// pass-through and the same rational with separate multiplies and adds
// in FastTanh32's expression order (see simd_tanh_amd64.s).
func BiasTanh32(row, bias []float32) {
	biasTanh32(row, bias[:len(row)])
}

// biasTanhScalar is tier 0 of BiasTanh32 and the tail handler of the
// vector tiers; len(bias) == len(row).
func biasTanhScalar(row, bias []float32) {
	for j, b := range bias {
		row[j] = FastTanh32(row[j] + b)
	}
}
