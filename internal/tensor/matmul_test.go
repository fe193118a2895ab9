package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// tolEquiv is the elementwise tolerance for blocked-vs-naive comparisons:
// the optimized kernels reassociate the k-summation (4-way unrolling and
// tiling), so results differ from the reference by a few ULPs scaled by
// the accumulation length.
const tolEquiv = 1e-9

// raggedShapes hits every remainder path: 1×N and N×1 products, sizes
// straddling the unroll width (4) and the tile edges (blockK, blockJ),
// and the train-step shapes.
var raggedShapes = [][3]int{
	{1, 1, 1},
	{1, 7, 1},
	{1, 640, 5}, // the action path: one observation → Q-values
	{5, 1, 9},
	{3, 4, 5},
	{4, 4, 4},
	{7, 9, 11},
	{blockK - 1, blockK + 1, blockJ - 1},
	{blockK + 3, blockK, blockJ + 5},
	{32, 640, 640}, // the train-step forward shape
	{130, 67, 259},
}

// TestMulIntoMatchesNaive is the golden-equivalence test for the blocked
// kernel against the original naive implementation.
func TestMulIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range raggedShapes {
		r, k, c := s[0], s[1], s[2]
		a := randomMatrix[float64](rng, r, k)
		b := randomMatrix[float64](rng, k, c)
		got, want := New[float64](r, c), New[float64](r, c)
		MulInto(got, a, b)
		mulNaiveInto(want, a, b)
		if !approxEqual(got, want, tolEquiv) {
			t.Fatalf("MulInto %dx%dx%d deviates from naive reference", r, k, c)
		}
	}
}

func TestMulTransAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range raggedShapes {
		// a is k×r so aᵀ·b has shape r×c with shared dimension k.
		r, k, c := s[0], s[1], s[2]
		a := randomMatrix[float64](rng, k, r)
		b := randomMatrix[float64](rng, k, c)
		got, want := New[float64](r, c), New[float64](r, c)
		MulTransAInto(got, a, b)
		mulTransANaiveInto(want, a, b)
		if !approxEqual(got, want, tolEquiv) {
			t.Fatalf("MulTransAInto %dx%dx%d deviates from naive reference", r, k, c)
		}
	}
}

func TestMulTransBMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range raggedShapes {
		r, k, c := s[0], s[1], s[2]
		a := randomMatrix[float64](rng, r, k)
		b := randomMatrix[float64](rng, c, k)
		got, want := New[float64](r, c), New[float64](r, c)
		MulTransBInto(got, a, b)
		mulTransBNaiveInto(want, a, b)
		if !approxEqual(got, want, tolEquiv) {
			t.Fatalf("MulTransBInto %dx%dx%d deviates from naive reference", r, k, c)
		}
	}
}

// TestMulIntoMatchesNaiveQuick drives random shapes (including sparse
// inputs, which exercise the zero-skip paths) through all three kernels.
func TestMulIntoMatchesNaiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a := randomMatrix[float64](rng, r, k)
		b := randomMatrix[float64](rng, k, c)
		// Sprinkle zeros to hit the zero-skip branches.
		for i := range a.Data {
			if rng.Intn(4) == 0 {
				a.Data[i] = 0
			}
		}
		got, want := New[float64](r, c), New[float64](r, c)
		MulInto(got, a, b)
		mulNaiveInto(want, a, b)
		if !approxEqual(got, want, tolEquiv) {
			return false
		}
		gotTA, wantTA := New[float64](r, c), New[float64](r, c)
		MulTransAInto(gotTA, transpose(a), b)
		mulTransANaiveInto(wantTA, transpose(a), b)
		if !approxEqual(gotTA, wantTA, tolEquiv) {
			return false
		}
		gotTB, wantTB := New[float64](r, c), New[float64](r, c)
		MulTransBInto(gotTB, a, transpose(b))
		mulTransBNaiveInto(wantTB, a, transpose(b))
		return approxEqual(gotTB, wantTB, tolEquiv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestParallelKernelsConcurrentCallers runs MulInto from several
// goroutines at once (the capesd scenario: one session per core training
// in one process). The kernels share nothing but the panel pools, and b
// is wide enough here that every call packs — run with -race to verify
// no two callers ever hold the same panel.
func TestParallelKernelsConcurrentCallers(t *testing.T) {
	t.Run("float32", concurrentCallers[float32])
	t.Run("float64", concurrentCallers[float64])
}

func concurrentCallers[E Element](t *testing.T) {
	const callers, rows, k, n = 4, 2 * panelMinRows, 3*blockK + 5, blockJ + 44
	rng := rand.New(rand.NewSource(15))
	b := randomMatrix[E](rng, k, n)
	done := make(chan error, callers)
	for g := 0; g < callers; g++ {
		// Each caller multiplies its own left operand, so a panel leaking
		// between callers could not cancel out.
		a := randomMatrix[E](rng, rows, k)
		want := New[E](rows, n)
		MulInto(want, a, b)
		go func() {
			dst := New[E](rows, n)
			for i := 0; i < 50; i++ {
				MulInto(dst, a, b)
				if !equal(dst, want) {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < callers; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errorString("concurrent MulInto deviates from the serial result")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestMaxPerRowInto(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 9, 3, -5, -2, -7})
	vals := make([]float64, 2)
	idx := make([]int, 2)
	m.MaxPerRowInto(vals, idx)
	if vals[0] != 9 || idx[0] != 1 || vals[1] != -2 || idx[1] != 1 {
		t.Fatalf("MaxPerRowInto = %v @ %v", vals, idx)
	}
	if math.IsNaN(vals[0]) {
		t.Fatal("unreachable")
	}
}

// randomMatrix returns an r×c matrix with uniform values in [-1, 1).
func randomMatrix[E Element](rng *rand.Rand, r, c int) *Matrix[E] {
	m := New[E](r, c)
	for i := range m.Data {
		m.Data[i] = E(rng.Float64()*2 - 1)
	}
	return m
}

// benchmark shapes: the CAPES train step multiplies batch×width by
// width×width (hidden layers) and width×actions (head).
func BenchmarkMulInto(b *testing.B) {
	shapes := [][3]int{{64, 64, 64}, {256, 256, 256}, {32, 640, 640}, {32, 500, 500}}
	// The 32×640·640×640 entry is the minibatch train-forward shape
	// (obsWidth 64, stack 10); 32×500·500×500 is the paper rig's own
	// (5 nodes × 10 PIs × 10 ticks), whose second column block is 244
	// wide — 8-lane steps and one 4-lane step.
	for _, s := range shapes {
		b.Run(sizeName(s[0], s[1], s[2])+"/f32", func(b *testing.B) {
			benchMulInto[float32](b, s[0], s[1], s[2])
		})
	}
}

func sizeName(r, k, c int) string {
	digits := func(n int) string {
		if n == 0 {
			return "0"
		}
		var buf [8]byte
		i := len(buf)
		for n > 0 {
			i--
			buf[i] = byte('0' + n%10)
			n /= 10
		}
		return string(buf[i:])
	}
	return digits(r) + "x" + digits(k) + "x" + digits(c)
}

func benchMulInto[E Element](b *testing.B, r, k, c int) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix[E](rng, r, k)
	m := randomMatrix[E](rng, k, c)
	dst := New[E](r, c)
	b.ReportAllocs()
	b.SetBytes(int64(ElemSize[E]() * r * k * c))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, a, m)
	}
}

func BenchmarkMulTransAInto(b *testing.B) {
	// GradW shape: (32×640)ᵀ · 32×640 → 640×640.
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix[float32](rng, 32, 640)
	m := randomMatrix[float32](rng, 32, 640)
	dst := New[float32](640, 640)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTransAInto(dst, a, m)
	}
}

func BenchmarkMulTransBInto(b *testing.B) {
	// gradIn shape: 32×640 · (640×640)ᵀ, and the paper rig's two:
	// 32×500 · (500×500)ᵀ through a hidden layer (the 2 × 2 dot tile on
	// avx2) and 32×5 · (500×5)ᵀ through the Q head (the saxpy1 chain).
	b.Run("f32", func(b *testing.B) { benchMulTransB[float32](b, 32, 640, 640) })
	for _, s := range [][3]int{{32, 500, 500}, {32, 5, 500}} {
		b.Run(sizeName(s[0], s[1], s[2])+"/f32", func(b *testing.B) {
			benchMulTransB[float32](b, s[0], s[1], s[2])
		})
	}
}

// benchMulTransB times dst (rows×dn) = a (rows×k) · bᵀ (b is dn×k).
func benchMulTransB[E Element](b *testing.B, rows, k, dn int) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix[E](rng, rows, k)
	m := randomMatrix[E](rng, dn, k)
	dst := New[E](rows, dn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTransBInto(dst, a, m)
	}
}
