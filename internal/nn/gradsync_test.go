package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// accumulateMean is the reduction contract a sweep at a time: a zeroed
// float64 accumulator, AccumulateFlat per rank in order, one division.
func accumulateMean(srcs [][]float32) []float32 {
	acc := make([]float64, len(srcs[0]))
	for _, src := range srcs {
		AccumulateFlat(acc, src)
	}
	out := make([]float32, len(acc))
	for i, v := range acc {
		out[i] = float32(v / float64(len(srcs)))
	}
	return out
}

func sameFloat32Bits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != got[i] && want[i] != want[i] {
			// Both NaN. Which operand's sign and payload an addition of
			// two NaNs (or Inf − Inf, then a NaN) hands on is the
			// instruction's operand order, the compiler's choice in both
			// loops — not part of the contract.
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %x (%v), want %x (%v)", what, i,
				math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// TestReduceMeanMatchesAccumulateMean holds the fused reduce to the
// reference bit for bit: every worker count from one to five (powers of
// two take the reciprocal, the others the division), lengths around the
// block size, and the values where a shortcut would show — ±0 (a lone −0
// comes out +0: the sum starts from +0.0), denormals, ±Inf, NaN (as
// NaN-ness: see sameFloat32Bits), values whose mean rounds differently
// when multiplied by a rounded 1/3.
func TestReduceMeanMatchesAccumulateMean(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	negZero := float32(math.Copysign(0, -1))
	special := []float32{0, negZero, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.MaxFloat32, -math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1, 5, 1e-30, 0.1}
	draw := func() float32 {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return math.Float32frombits(rng.Uint32())
		default:
			return float32(rng.NormFloat64())
		}
	}
	lengths := []int{0, 1, 7, reduceBlock - 1, reduceBlock, reduceBlock + 1, 2*reduceBlock + 3, 5000}
	for k := 1; k <= 5; k++ {
		for _, n := range lengths {
			srcs := make([][]float32, k)
			for r := range srcs {
				srcs[r] = make([]float32, n)
				for i := range srcs[r] {
					srcs[r][i] = draw()
				}
			}
			// Every special value meets every other in the first ranks.
			for i := 0; i < n && i < len(special)*len(special) && k > 1; i++ {
				srcs[0][i], srcs[1][i] = special[i%len(special)], special[i/len(special)]
			}
			want := accumulateMean(srcs)
			what := fmt.Sprintf("k=%d n=%d", k, n)

			dst := make([]float32, n)
			for i := range dst {
				dst[i] = float32(math.NaN()) // must be overwritten, not accumulated into
			}
			ReduceMean(dst, srcs)
			sameFloat32Bits(t, what, dst, want)

			// In place: rank 0 is the destination, as on the leader.
			ReduceMean(srcs[0], srcs)
			sameFloat32Bits(t, what+" in place", srcs[0], want)
		}
	}

	// A lone −0 is +0 (as the accumulator made it), never −0.
	lone := []float32{negZero}
	ReduceMean(lone, [][]float32{lone})
	if math.Float32bits(lone[0]) != 0 {
		t.Fatalf("lone −0 reduced to %x, want +0", math.Float32bits(lone[0]))
	}
	// The quotient by three is the division's, not the reciprocal's. The
	// two differ in the last float64 bit for about one sum in three, and
	// in the float32 result only when that bit straddles a float32
	// rounding boundary: this sum is one ulp64 above three times the
	// midpoint of 0x3f800002 and 0x3f800003.
	three := [][]float32{{math.Float32frombits(0x40400004)}, {math.Float32frombits(0xb3800000)}, {math.Float32frombits(0x26000000)}}
	sum := 0 + float64(three[0][0]) + float64(three[1][0]) + float64(three[2][0])
	if float32(sum/3) == float32(sum*(1.0/3)) {
		t.Fatal("the k = 3 probe no longer tells division from reciprocal")
	}
	out := make([]float32, 1)
	ReduceMean(out, three)
	if math.Float32bits(out[0]) != 0x3f800003 {
		t.Fatalf("mean of three reduced to %x, want the quotient 3f800003 (3f800002 is the reciprocal's)", math.Float32bits(out[0]))
	}

	// k identical frames reproduce the frame exactly (−0 aside): what
	// lets an N-worker run be diffed against the single-process golden.
	frame := make([]float32, 3000)
	for i := range frame {
		if frame[i] = math.Float32frombits(rng.Uint32()); frame[i] != frame[i] || frame[i] == 0 {
			frame[i] = 1.5
		}
	}
	for k := 1; k <= 5; k++ {
		srcs := make([][]float32, k)
		for r := range srcs {
			srcs[r] = frame
		}
		dst := make([]float32, len(frame))
		ReduceMean(dst, srcs)
		sameFloat32Bits(t, fmt.Sprintf("%d identical frames", k), dst, frame)
	}
}

func TestReduceMeanRejectsBadShapes(t *testing.T) {
	for name, f := range map[string]func(){
		"no workers":    func() { ReduceMean(make([]float32, 2), nil) },
		"short source":  func() { ReduceMean(make([]float32, 2), [][]float32{{1, 2}, {1}}) },
		"long source":   func() { ReduceMean(make([]float32, 2), [][]float32{{1, 2, 3}}) },
		"accumulate":    func() { AccumulateFlat(make([]float64, 2), []float32{1}) },
		"float64 arena": func() { ReduceMean(make([]float64, 1), [][]float64{{1}, {1, 2}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkReduceMean is the leader's reduction at the cluster bench's
// model (182 105 parameters, width 300) and the paper rig's (503 505).
func BenchmarkReduceMean(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{182_105, 503_505} {
		for _, k := range []int{2, 4} {
			srcs := make([][]float32, k)
			for r := range srcs {
				srcs[r] = make([]float32, n)
				for i := range srcs[r] {
					srcs[r][i] = float32(rng.NormFloat64())
				}
			}
			b.Run(fmt.Sprintf("n%d/ranks%d", n, k), func(b *testing.B) {
				b.SetBytes(int64(4 * n * k))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ReduceMean(srcs[0], srcs)
				}
			})
		}
	}
}
