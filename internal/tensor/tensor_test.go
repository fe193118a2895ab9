package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New[float64](3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New[float64](3,4) = %d×%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Fatalf("At(2,3) = %v, want 7.5", got)
	}
	if got := m.Row(2)[3]; got != 7.5 {
		t.Fatalf("Row(2)[3] = %v, want 7.5", got)
	}
}

func TestFromSliceSharesStorage(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	m := FromSlice(2, 2, d)
	d[0] = 9
	if m.At(0, 0) != 9 {
		t.Fatal("FromSlice must wrap, not copy")
	}
}

func TestFromSlicePanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestMulKnownValues(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := mul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !equal(got, want) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New[float64](4, 4)
	a.XavierFill(rng, 4, 4)
	id := New[float64](4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	if !approxEqual(mul(a, id), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !approxEqual(mul(id, a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dimension mismatch")
		}
	}()
	mul(New[float64](2, 3), New[float64](2, 3))
}

// TestMulTransAMatchesExplicitTranspose checks MulTransAInto against
// transpose+mul on random matrices (property-based).
func TestMulTransAMatchesExplicitTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := New[float64](r, c), New[float64](r, n)
		a.XavierFill(rng, r, c)
		b.XavierFill(rng, r, n)
		dst := New[float64](c, n)
		MulTransAInto(dst, a, b)
		return approxEqual(dst, mul(transpose(a), b), 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulTransBMatchesExplicitTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := New[float64](r, c), New[float64](n, c)
		a.XavierFill(rng, r, c)
		b.XavierFill(rng, n, c)
		dst := New[float64](r, n)
		MulTransBInto(dst, a, b)
		return approxEqual(dst, mul(a, transpose(b)), 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := New[float64](r, c)
		m.XavierFill(rng, r, c)
		return equal(transpose(transpose(m)), m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVectorAndColSums(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	m.AddRowVector([]float64{10, 20, 30})
	want := FromSlice(2, 3, []float64{11, 22, 33, 14, 25, 36})
	if !equal(m, want) {
		t.Fatalf("AddRowVector = %v", m)
	}
	sums := make([]float64, 3)
	m.ColSumsInto(sums)
	if sums[0] != 25 || sums[1] != 47 || sums[2] != 69 {
		t.Fatalf("ColSums = %v", sums)
	}
}

func TestXavierFillRange(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := New[float64](50, 50)
	m.XavierFill(rng, 50, 50)
	limit := math.Sqrt(6.0 / 100.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
	}
	// Not all zero and roughly mean-centered.
	var sum float64
	for _, v := range m.Data {
		sum += v
	}
	if mean := sum / float64(len(m.Data)); math.Abs(mean) > 0.05 {
		t.Fatalf("Xavier mean too far from 0: %v", mean)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ
func TestMulTransposeIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a, b := New[float64](r, c), New[float64](c, n)
		a.XavierFill(rng, r, c)
		b.XavierFill(rng, c, n)
		lhs := transpose(mul(a, b))
		rhs := mul(transpose(b), transpose(a))
		return approxEqual(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if ArgMax(a) != 3 {
		t.Fatal("ArgMax wrong")
	}
}

// Reference helpers the kernel tests compare against.

// mul returns a·b in a fresh matrix.
func mul[E Element](a, b *Matrix[E]) *Matrix[E] {
	dst := New[E](a.Rows, b.Cols)
	MulInto(dst, a, b)
	return dst
}

// transpose returns mᵀ in a fresh matrix.
func transpose[E Element](m *Matrix[E]) *Matrix[E] {
	t := New[E](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// equal reports whether a and b have identical shape and elements.
func equal[E Element](a, b *Matrix[E]) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.Data, b.Data)
}

// approxEqual reports whether a and b match within tol elementwise.
func approxEqual[E Element](a, b *Matrix[E], tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(float64(v-b.Data[i])) > tol {
			return false
		}
	}
	return true
}
