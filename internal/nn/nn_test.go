package nn

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"capes/internal/tensor"
)

func TestDenseForwardKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := newDense(2, 2, rng)
	copy(d.W.Data, []float64{1, 2, 3, 4})
	copy(d.B, []float64{10, 20})
	out := d.Forward(tensor.FromSlice(1, 2, []float64{1, 1}))
	if out.At(0, 0) != 14 || out.At(0, 1) != 26 {
		t.Fatalf("Dense forward = %v", out)
	}
}

// numericalGradCheck compares analytic gradients against central finite
// differences for a small network, the canonical backprop correctness test.
func TestBackpropNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP[float64](rng, ActTanh, 3, 5, 4, 2)
	batch := 4
	in := tensor.New[float64](batch, 3)
	in.XavierFill(rng, 3, 3)
	target := tensor.New[float64](batch, 2)
	target.XavierFill(rng, 2, 2)

	loss := func() float64 {
		out := m.Forward(in)
		var s float64
		n := float64(len(out.Data))
		for i, v := range out.Data {
			d := v - target.Data[i]
			s += d * d / n
		}
		return s / n * n // keep formula identical to mse: Σd²/n
	}
	// Analytic gradients.
	out := m.Forward(in)
	grad := tensor.New[float64](batch, 2)
	mse(out, target, grad)
	m.Backward(grad)

	params, grads := m.Params(), m.Grads()
	const h = 1e-6
	checked := 0
	for pi, p := range params {
		for j := 0; j < len(p.Data); j += 7 { // sample every 7th param
			orig := p.Data[j]
			p.Data[j] = orig + h
			lp := loss()
			p.Data[j] = orig - h
			lm := loss()
			p.Data[j] = orig
			numeric := (lp - lm) / (2 * h)
			analytic := grads[pi].Data[j]
			if math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("param %d[%d]: analytic %g vs numeric %g", pi, j, analytic, numeric)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d gradient entries checked", checked)
	}
}

// mse computes the plain mean-squared error between pred and target over
// all outputs, writing the gradient into gradOut.
func mse(pred, target, gradOut *tensor.Matrix[float64]) float64 {
	n := float64(len(pred.Data))
	var loss float64
	for i, p := range pred.Data {
		diff := p - target.Data[i]
		loss += diff * diff
		gradOut.Data[i] = 2 * diff / n
	}
	return loss / n
}

func TestMaskedMSENumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP[float64](rng, ActTanh, 4, 6, 3)
	batch := 5
	in := tensor.New[float64](batch, 4)
	in.XavierFill(rng, 4, 4)
	actions := []int{0, 2, 1, 2, 0}
	targets := []float64{0.5, -0.2, 1.1, 0.0, -0.7}

	loss := func() float64 {
		out := m.Forward(in)
		var s float64
		for i, a := range actions {
			d := out.At(i, a) - targets[i]
			s += d * d
		}
		return s / float64(batch)
	}
	out := m.Forward(in)
	grad := tensor.New[float64](batch, 3)
	got := MaskedMSE(out, actions, targets, grad)
	if math.Abs(got-loss()) > 1e-12 {
		t.Fatalf("MaskedMSE loss %g vs direct %g", got, loss())
	}
	m.Backward(grad)
	params, grads := m.Params(), m.Grads()
	const h = 1e-6
	for pi, p := range params {
		for j := 0; j < len(p.Data); j += 5 {
			orig := p.Data[j]
			p.Data[j] = orig + h
			lp := loss()
			p.Data[j] = orig - h
			lm := loss()
			p.Data[j] = orig
			numeric := (lp - lm) / (2 * h)
			if math.Abs(numeric-grads[pi].Data[j]) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("masked grad param %d[%d]: analytic %g vs numeric %g",
					pi, j, grads[pi].Data[j], numeric)
			}
		}
	}
}

// TestMLPLearnsXOR: the paper notes an MLP "can represent boolean
// functions, such as AND, OR, NOT, and XOR" (§3.4). Verify training
// actually learns XOR, the classic non-linearly-separable case.
func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMLP[float64](rng, ActTanh, 2, 8, 8, 1)
	opt := NewAdam[float64](0.01)
	in := tensor.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	target := tensor.FromSlice(4, 1, []float64{0, 1, 1, 0})
	grad := tensor.New[float64](4, 1)
	var loss float64
	for i := 0; i < 2000; i++ {
		out := m.Forward(in)
		loss = mse(out, target, grad)
		m.Backward(grad)
		opt.FusedStep(m.FlatParams(), m.FlatGrads(), 1, nil, 0)
	}
	if loss > 0.01 {
		t.Fatalf("XOR not learned, final loss %g", loss)
	}
	out := m.Forward(in)
	for i, want := range []float64{0, 1, 1, 0} {
		if math.Abs(out.At(i, 0)-want) > 0.2 {
			t.Fatalf("XOR row %d: got %g want %g", i, out.At(i, 0), want)
		}
	}
}

func TestReLULearnsRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP[float64](rng, ActReLU, 1, 16, 1)
	opt := NewAdam[float64](0.01)
	n := 32
	in := tensor.New[float64](n, 1)
	target := tensor.New[float64](n, 1)
	for i := 0; i < n; i++ {
		x := float64(i)/float64(n)*2 - 1
		in.Set(i, 0, x)
		target.Set(i, 0, math.Abs(x)) // |x| is a natural ReLU shape
	}
	grad := tensor.New[float64](n, 1)
	var loss float64
	for i := 0; i < 3000; i++ {
		loss = mse(m.Forward(in), target, grad)
		m.Backward(grad)
		opt.FusedStep(m.FlatParams(), m.FlatGrads(), 1, nil, 0)
	}
	if loss > 0.005 {
		t.Fatalf("ReLU regression loss %g", loss)
	}
}

func TestCloneAndCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP[float64](rng, ActTanh, 3, 4, 2)
	c := m.Clone()
	for i, p := range m.Params() {
		if !slices.Equal(p.Data, c.Params()[i].Data) {
			t.Fatalf("clone param %d differs", i)
		}
	}
	// Mutating the clone must not touch the original.
	c.Params()[0].Set(0, 0, 123)
	if m.Params()[0].At(0, 0) == 123 {
		t.Fatal("clone shares storage with original")
	}
}

func TestForwardVecMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP[float64](rng, ActTanh, 4, 5, 3)
	obs := []float64{0.1, -0.3, 0.7, 0.2}
	v := m.ForwardVec(obs)
	batch := m.Forward(tensor.FromSlice(1, 4, obs))
	for j := 0; j < 3; j++ {
		if math.Abs(v[j]-batch.At(0, j)) > 1e-12 {
			t.Fatalf("ForwardVec[%d] = %g, batch = %g", j, v[j], batch.At(0, j))
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewCAPESNetwork[float64](rng, 20, 5)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load[float64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.InputSize() != 20 || got.OutputSize() != 5 {
		t.Fatalf("loaded shape %d→%d", got.InputSize(), got.OutputSize())
	}
	for i, p := range m.Params() {
		if !slices.Equal(p.Data, got.Params()[i].Data) {
			t.Fatalf("param %d differs after round trip", i)
		}
	}
	// And the loaded network computes identically.
	obs := make([]float64, 20)
	for i := range obs {
		obs[i] = float64(i) / 20
	}
	a, b := m.ForwardVec(obs), got.ForwardVec(obs)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP[float64](rng, ActReLU, 3, 4, 2)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile[float64](path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Activation != ActReLU {
		t.Fatalf("activation = %v", got.Activation)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load[float64](bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("expected error loading garbage")
	}
}

func TestNumParamsAndBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := NewMLP[float64](rng, ActTanh, 10, 20, 5)
	want := 10*20 + 20 + 20*5 + 5
	if m.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", m.NumParams(), want)
	}
	if m.Bytes() != want*8 {
		t.Fatalf("Bytes = %d", m.Bytes())
	}
}

// Paper Table 1: the CAPES network has two hidden layers the same size as
// the input; NewCAPESNetwork must honor that.
func TestCAPESNetworkShape(t *testing.T) {
	m := NewCAPESNetwork[float64](rand.New(rand.NewSource(1)), 600, 5)
	wantSizes := []int{600, 600, 600, 5}
	if len(m.Sizes) != len(wantSizes) {
		t.Fatalf("sizes = %v", m.Sizes)
	}
	for i, s := range wantSizes {
		if m.Sizes[i] != s {
			t.Fatalf("sizes = %v, want %v", m.Sizes, wantSizes)
		}
	}
	if m.Activation != ActTanh {
		t.Fatal("CAPES network must use tanh")
	}
}

func TestAdamStepCount(t *testing.T) {
	a := NewAdam[float64](0.001)
	a.FusedStep([]float64{1}, []float64{1}, 1, nil, 0)
	if a.StepCount() != 1 {
		t.Fatalf("StepCount = %d", a.StepCount())
	}
}

// TestFlatNorm pins the clip norm on the hand-computed 3-4-5 triangle at
// both precisions — the float32 arena takes tensor.SumSquares32's
// lane-blocked sum, so the legs are also placed in different lanes and
// in the ragged tail — and holds the two precisions together on an
// arena-sized random gradient.
func TestFlatNorm(t *testing.T) {
	if got := FlatNorm([]float64{3, 4}); got != 5 {
		t.Fatalf("FlatNorm(float64 3,4) = %g, want 5", got)
	}
	for _, g := range [][]float32{
		{3, 4},
		{3, 0, 0, 0, 0, 4, 0, 0},
		{0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -4},
	} {
		if got := FlatNorm(g); got != 5 {
			t.Fatalf("FlatNorm(float32 %v) = %g, want 5", g, got)
		}
	}
	if got := FlatNorm([]float32(nil)); got != 0 {
		t.Fatalf("FlatNorm(empty) = %g, want 0", got)
	}
	rng := rand.New(rand.NewSource(37))
	g32, g64 := make([]float32, 10_003), make([]float64, 10_003)
	for i := range g32 {
		g32[i] = float32(rng.NormFloat64())
		g64[i] = float64(g32[i])
	}
	if a, b := FlatNorm(g32), FlatNorm(g64); math.Abs(a-b) > 1e-12*b {
		t.Fatalf("FlatNorm float32 %v vs float64 %v on the same values", a, b)
	}
}

// Property: forward pass of a tanh network is bounded by the output
// layer's affine range — more simply, hidden activations are in [-1,1],
// so output magnitude ≤ Σ|W_out| + |b|. Check outputs are finite for
// random inputs (stability property).
func TestForwardFiniteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewMLP[float64](rng, ActTanh, 6, 6, 6, 3)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		obs := make([]float64, 6)
		for i := range obs {
			obs[i] = (r.Float64()*2 - 1) * 1e6 // huge inputs
		}
		for _, v := range m.ForwardVec(obs) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFiniteDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewMLP[float64](rng, ActTanh, 2, 2, 1)
	if err := m.CheckFinite(); err != nil {
		t.Fatalf("fresh model not finite: %v", err)
	}
	m.Params()[0].Set(0, 0, math.NaN())
	if err := m.CheckFinite(); err == nil {
		t.Fatal("NaN parameter not detected")
	}
}

func TestActivationString(t *testing.T) {
	if ActTanh.String() != "tanh" || ActReLU.String() != "relu" {
		t.Fatal("activation names wrong")
	}
	if Activation(99).String() == "" {
		t.Fatal("unknown activation must still render")
	}
}

func BenchmarkForward600(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewCAPESNetwork[float64](rng, 600, 5)
	in := tensor.New[float64](32, 600)
	in.XavierFill(rng, 600, 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(in)
	}
}

func BenchmarkTrainStep600(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewCAPESNetwork[float64](rng, 600, 5)
	opt := NewAdam[float64](1e-4)
	in := tensor.New[float64](32, 600)
	in.XavierFill(rng, 600, 600)
	actions := make([]int, 32)
	targets := make([]float64, 32)
	grad := tensor.New[float64](32, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := m.Forward(in)
		MaskedMSE(out, actions, targets, grad)
		m.Backward(grad)
		opt.FusedStep(m.FlatParams(), m.FlatGrads(), 1, nil, 0)
	}
}

// BenchmarkFlatNorm measures the global gradient norm over the
// paper-rig Q-network's arena (500-500-500-5: 503 505 float32
// gradients) — one reduction per train step, ahead of the fused clip.
func BenchmarkFlatNorm(b *testing.B) {
	const n = 500*500*2 + 500*2 + 500*5 + 5
	rng := rand.New(rand.NewSource(1))
	grads := make([]float32, n)
	for i := range grads {
		grads[i] = float32(rng.NormFloat64())
	}
	b.ReportAllocs()
	b.SetBytes(4 * n)
	var norm float64
	for i := 0; i < b.N; i++ {
		norm += FlatNorm(grads)
	}
	if norm == 0 {
		b.Fatal("zero norm")
	}
}

// TestCAPESNetworkDrawsMatchesNewCAPESNetwork: NewCAPESNetwork leaves its
// rng exactly CAPESNetworkDraws Float64 calls on, at either precision and
// over shapes from a one-wide network to the paper rig's.
func TestCAPESNetworkDrawsMatchesNewCAPESNetwork(t *testing.T) {
	for _, sh := range []struct{ in, actions int }{{1, 1}, {4, 3}, {17, 5}, {64, 9}, {500, 5}} {
		for _, wide := range []bool{false, true} {
			built, stepped := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			if wide {
				NewCAPESNetwork[float64](built, sh.in, sh.actions)
			} else {
				NewCAPESNetwork[float32](built, sh.in, sh.actions)
			}
			for i := CAPESNetworkDraws(sh.in, sh.actions); i > 0; i-- {
				stepped.Float64()
			}
			for i := 0; i < 1000; i++ {
				if g, w := built.Uint64(), stepped.Uint64(); g != w {
					t.Fatalf("%+v float64=%v: output %d after NewCAPESNetwork %#x, after CAPESNetworkDraws calls %#x", sh, wide, i, g, w)
				}
			}
		}
	}
}
