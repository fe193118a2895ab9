package tensor

// SumSquares32 returns Σ x[j]² accumulated in float64 — the squared L2
// norm behind nn.FlatNorm's global gradient clip. The sum is *defined*
// lane-blocked rather than sequential: eight float64 partial sums, lane
// l taking the elements with j ≡ l (mod 8) in increasing j, combined in
// the fixed tree ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)). Every tier
// computes exactly that (the products are exact in float64, so the only
// roundings are the adds, and their order is part of the definition),
// so the result is bit-identical on every tier. Eight
// independent add chains are also what takes the reduction off the single
// latency-bound chain a sequential float64 sum is.
//
// MaxFloat32² is far inside float64 range, so the sum is finite for any
// finite input; NaN and ±Inf propagate.
func SumSquares32(x []float32) float64 {
	var s [8]float64
	n8 := len(x) &^ 7
	sumSquares8(x[:n8], &s)
	for j := n8; j < len(x); j++ {
		f := float64(x[j])
		s[j-n8] += f * f
	}
	return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
}

// sumSquaresScalar writes the eight lane sums of x (len(x) % 8 == 0)
// into acc: tier 0 of sumSquares8 and the reference for the vector
// tiers.
func sumSquaresScalar(x []float32, acc *[8]float64) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for ; len(x) >= 8; x = x[8:] {
		f0, f1, f2, f3 := float64(x[0]), float64(x[1]), float64(x[2]), float64(x[3])
		f4, f5, f6, f7 := float64(x[4]), float64(x[5]), float64(x[6]), float64(x[7])
		s0 += f0 * f0
		s1 += f1 * f1
		s2 += f2 * f2
		s3 += f3 * f3
		s4 += f4 * f4
		s5 += f5 * f5
		s6 += f6 * f6
		s7 += f7 * f7
	}
	*acc = [8]float64{s0, s1, s2, s3, s4, s5, s6, s7}
}
