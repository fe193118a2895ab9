package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// equivTol returns the elementwise tolerance for holding an optimized
// kernel at precision E to the float64 naive golden reference: the
// k-long accumulation reassociates and rounds at eps[E], so the bound
// scales with both. The constant is generous (observed error is ~10×
// smaller) but still ~5 decimal digits at float32/k=640.
func equivTol[E Element](k int) float64 {
	tol := 16 * eps[E]() * float64(k)
	if min := 64 * eps[E](); tol < min {
		tol = min
	}
	return tol
}

// eps returns the machine epsilon of E (2⁻²³ for float32, 2⁻⁵² for
// float64).
func eps[E Element]() float64 {
	if ElemSize[E]() == 4 {
		return 0x1p-23
	}
	return 0x1p-52
}

// widen lifts a matrix of E into float64 exactly (float32→float64 is
// lossless), so the golden kernels see the identical operand values.
func widen[E Element](m *Matrix[E]) *Matrix[float64] {
	w := New[float64](m.Rows, m.Cols)
	Convert(w.Data, m.Data)
	return w
}

// checkKernelsAgainstGolden runs all three optimized kernels at
// precision E against the float64 naive references on one shape set.
func checkKernelsAgainstGolden[E Element](t *testing.T, shapes [][3]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	for _, s := range shapes {
		r, k, c := s[0], s[1], s[2]
		tol := equivTol[E](k)

		a := randomMatrix[E](rng, r, k)
		b := randomMatrix[E](rng, k, c)
		got := New[E](r, c)
		MulInto(got, a, b)
		want := New[float64](r, c)
		mulNaiveInto(want, widen(a), widen(b))
		if !approxEqualWidened(got, want, tol) {
			t.Fatalf("MulInto[%T] %dx%dx%d deviates from float64 golden (tol %g)", *new(E), r, k, c, tol)
		}

		at := randomMatrix[E](rng, k, r) // aᵀ·b shares dimension k
		MulTransAInto(got, at, b)
		mulTransANaiveInto(want, widen(at), widen(b))
		if !approxEqualWidened(got, want, tol) {
			t.Fatalf("MulTransAInto[%T] %dx%dx%d deviates from float64 golden (tol %g)", *new(E), r, k, c, tol)
		}

		bt := randomMatrix[E](rng, c, k) // a·bᵀ shares dimension k
		MulTransBInto(got, a, bt)
		mulTransBNaiveInto(want, widen(a), widen(bt))
		if !approxEqualWidened(got, want, tol) {
			t.Fatalf("MulTransBInto[%T] %dx%dx%d deviates from float64 golden (tol %g)", *new(E), r, k, c, tol)
		}
	}
}

func approxEqualWidened[E Element](got *Matrix[E], want *Matrix[float64], tol float64) bool {
	return approxEqual(widen(got), want, tol)
}

// TestKernelEquivalenceAcrossPrecisions is the cross-precision golden
// test the float32 hot path rests on: both instantiations of the
// blocked/unrolled kernels must match the float64 naive references
// within precision-scaled tolerance across ragged shapes.
func TestKernelEquivalenceAcrossPrecisions(t *testing.T) {
	t.Run("float32", func(t *testing.T) { checkKernelsAgainstGolden[float32](t, raggedShapes) })
	t.Run("float64", func(t *testing.T) { checkKernelsAgainstGolden[float64](t, raggedShapes) })
}

// TestConvert checks the one sanctioned precision-conversion helper in
// both directions, including exactness of widening.
func TestConvert(t *testing.T) {
	src := []float32{1, -2.5, 3.25}
	dst := make([]float64, 3)
	Convert(dst, src)
	for i, v := range src {
		if dst[i] != float64(v) {
			t.Fatalf("widening Convert[%d] = %v", i, dst[i])
		}
	}
	back := make([]float32, 3)
	Convert(back, dst)
	for i, v := range src {
		if back[i] != v {
			t.Fatalf("float32→float64→float32 not lossless at %d", i)
		}
	}
}

func TestElemSizeAndEps(t *testing.T) {
	if ElemSize[float32]() != 4 || ElemSize[float64]() != 8 {
		t.Fatal("ElemSize wrong")
	}
	if eps[float32]() != 0x1p-23 || eps[float64]() != 0x1p-52 {
		t.Fatal("eps wrong")
	}
}

// TestFastTanh32Accuracy holds the rational float32 tanh to math.Tanh
// within a few float32 ulps across the full clamp range, including the
// saturated tails and the tiny-input shortcut.
func TestFastTanh32Accuracy(t *testing.T) {
	worst := 0.0
	for i := -200_000; i <= 200_000; i++ {
		x := float64(i) / 20_000 // [-10, 10] in 5e-5 steps
		got := float64(FastTanh32(float32(x)))
		want := math.Tanh(x)
		if d := math.Abs(got - want); d > worst {
			worst = d
		}
	}
	if worst > 4e-7 {
		t.Fatalf("FastTanh32 worst abs error %g, want ≤ 4e-7", worst)
	}
	if FastTanh32(0) != 0 || FastTanh32(100) > 1 || FastTanh32(-100) < -1 {
		t.Fatal("FastTanh32 bounds violated")
	}
}
