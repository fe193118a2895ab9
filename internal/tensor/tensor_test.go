package tensor

import (
	"math"
	"math/rand"
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

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestMulKnownValues(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want) {
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
	if !ApproxEqual(Mul(a, id), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !ApproxEqual(Mul(id, a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dimension mismatch")
		}
	}()
	Mul(New[float64](2, 3), New[float64](2, 3))
}

// TestMulTransAMatchesExplicitTranspose checks MulTransAInto against
// Transpose+Mul on random matrices (property-based).
func TestMulTransAMatchesExplicitTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := New[float64](r, c), New[float64](r, n)
		a.XavierFill(rng, r, c)
		b.XavierFill(rng, r, n)
		dst := New[float64](c, n)
		MulTransAInto(dst, a, b)
		return ApproxEqual(dst, Mul(Transpose(a), b), 1e-10)
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
		return ApproxEqual(dst, Mul(a, Transpose(b)), 1e-10)
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
		return Equal(Transpose(Transpose(m)), m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixScale(t *testing.T) {
	m := FromSlice(1, 3, []float64{9, 18, 27})
	m.Scale(2)
	if !Equal(m, FromSlice(1, 3, []float64{18, 36, 54})) {
		t.Fatalf("Scale = %v", m)
	}
}

func TestAddScaled(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 1})
	b := FromSlice(1, 2, []float64{2, 4})
	a.AddScaled(b, 0.5)
	if !Equal(a, FromSlice(1, 2, []float64{2, 3})) {
		t.Fatalf("AddScaled = %v", a)
	}
}

func TestAddRowVectorAndColSums(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	m.AddRowVector([]float64{10, 20, 30})
	want := FromSlice(2, 3, []float64{11, 22, 33, 14, 25, 36})
	if !Equal(m, want) {
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
	if math.Abs(Mean(m.Data)) > 0.05 {
		t.Fatalf("Xavier mean too far from 0: %v", Mean(m.Data))
	}
}

func TestCheckFinite(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	if err := m.CheckFinite(); err != nil {
		t.Fatalf("finite matrix reported error: %v", err)
	}
	m.Set(0, 1, math.NaN())
	if err := m.CheckFinite(); err == nil {
		t.Fatal("NaN not detected")
	}
	m.Set(0, 1, math.Inf(1))
	if err := m.CheckFinite(); err == nil {
		t.Fatal("Inf not detected")
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
		lhs := Transpose(Mul(a, b))
		rhs := Mul(Transpose(b), Transpose(a))
		return ApproxEqual(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if Sum(a) != 10 || Mean(a) != 2.5 || Mean[float64](nil) != 0 {
		t.Fatalf("Sum/Mean = %v/%v", Sum(a), Mean(a))
	}
	if ArgMax(a) != 3 {
		t.Fatal("ArgMax wrong")
	}
	if Clamp(5.0, 0, 3) != 3 || Clamp(-1.0, 0, 3) != 0 || Clamp(2.0, 0, 3) != 2 {
		t.Fatal("Clamp wrong")
	}
}
