package nn

import (
	"math"
	"math/rand"
	"testing"

	"capes/internal/tensor"
)

// refStack composes a no-activation Dense with a standalone activation
// layer — the package's original un-fused structure — as the golden
// reference for the fused Dense forward/backward kernels.
type refStack struct {
	d   *Dense[float64]
	act refLayer
}

// refLayer is a standalone activation layer.
type refLayer interface {
	Forward(in *tensor.Matrix[float64]) *tensor.Matrix[float64]
	Backward(gradOut *tensor.Matrix[float64]) *tensor.Matrix[float64]
}

// newDense creates an in×out dense layer with Xavier-initialized weights
// and no activation.
func newDense(in, out int, rng *rand.Rand) *Dense[float64] {
	n := in*out + out
	return newDenseArena(in, out, ActNone, make([]float64, n), make([]float64, n), rng)
}

// refTanh is a standalone hyperbolic-tangent activation layer.
type refTanh struct {
	output *tensor.Matrix[float64]
	gradIn *tensor.Matrix[float64]
}

// Forward applies tanh elementwise.
func (t *refTanh) Forward(in *tensor.Matrix[float64]) *tensor.Matrix[float64] {
	if t.output == nil || t.output.Rows != in.Rows || t.output.Cols != in.Cols {
		t.output = tensor.New[float64](in.Rows, in.Cols)
		t.gradIn = tensor.New[float64](in.Rows, in.Cols)
	}
	for i, v := range in.Data {
		t.output.Data[i] = math.Tanh(v)
	}
	return t.output
}

// Backward uses d tanh(x)/dx = 1 − tanh²(x), computed from the cached
// forward output.
func (t *refTanh) Backward(gradOut *tensor.Matrix[float64]) *tensor.Matrix[float64] {
	for i, y := range t.output.Data {
		t.gradIn.Data[i] = gradOut.Data[i] * (1 - y*y)
	}
	return t.gradIn
}

// refReLU is a standalone rectifier layer.
type refReLU struct {
	output *tensor.Matrix[float64]
	gradIn *tensor.Matrix[float64]
}

// Forward applies max(0,x) elementwise.
func (r *refReLU) Forward(in *tensor.Matrix[float64]) *tensor.Matrix[float64] {
	if r.output == nil || r.output.Rows != in.Rows || r.output.Cols != in.Cols {
		r.output = tensor.New[float64](in.Rows, in.Cols)
		r.gradIn = tensor.New[float64](in.Rows, in.Cols)
	}
	for i, v := range in.Data {
		r.output.Data[i] = max(v, 0)
	}
	return r.output
}

// Backward passes gradient where the forward input was positive.
func (r *refReLU) Backward(gradOut *tensor.Matrix[float64]) *tensor.Matrix[float64] {
	for i, y := range r.output.Data {
		if y > 0 {
			r.gradIn.Data[i] = gradOut.Data[i]
		} else {
			r.gradIn.Data[i] = 0
		}
	}
	return r.gradIn
}

// approxEqual reports whether a and b match within tol elementwise.
func approxEqual(a, b *tensor.Matrix[float64], tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func (r *refStack) forward(in *tensor.Matrix[float64]) *tensor.Matrix[float64] {
	out := r.d.Forward(in)
	if r.act != nil {
		out = r.act.Forward(out)
	}
	return out
}

func (r *refStack) backward(gradOut *tensor.Matrix[float64]) *tensor.Matrix[float64] {
	g := gradOut
	if r.act != nil {
		g = r.act.Backward(g)
	}
	return r.d.Backward(g)
}

// fusedShapes includes 1×N (the action path), ragged batches, and sizes
// straddling the tensor kernels' unroll width and parallel threshold.
var fusedShapes = []struct{ batch, in, out int }{
	{1, 1, 1},
	{1, 640, 5},
	{3, 7, 5},
	{32, 64, 64},
	{32, 640, 640},
	{33, 129, 65},
}

// TestFusedDenseMatchesReference holds the fused bias-add+activation
// forward and the fused activation-derivative backward to the original
// two-layer composition, for both activations, across ragged shapes.
func TestFusedDenseMatchesReference(t *testing.T) {
	const tol = 1e-9
	for _, act := range []Activation{ActTanh, ActReLU, ActNone} {
		for _, sh := range fusedShapes {
			rng := rand.New(rand.NewSource(17))
			fused := newDense(sh.in, sh.out, rng)
			fused.Act = act

			ref := &refStack{d: newDense(sh.in, sh.out, rand.New(rand.NewSource(99)))}
			copy(ref.d.W.Data, fused.W.Data)
			copy(ref.d.B, fused.B)
			switch act {
			case ActTanh:
				ref.act = &refTanh{}
			case ActReLU:
				ref.act = &refReLU{}
			}
			// Nonzero biases so the fused bias-add is actually exercised.
			for i := range fused.B {
				fused.B[i] = rng.Float64() - 0.5
				ref.d.B[i] = fused.B[i]
			}

			in := tensor.New[float64](sh.batch, sh.in)
			for i := range in.Data {
				in.Data[i] = rng.Float64()*2 - 1
			}
			gotOut := fused.Forward(in)
			wantOut := ref.forward(in)
			if !approxEqual(gotOut, wantOut, tol) {
				t.Fatalf("%v %dx%d->%d: fused forward deviates from reference", act, sh.batch, sh.in, sh.out)
			}

			gradOut := tensor.New[float64](sh.batch, sh.out)
			for i := range gradOut.Data {
				gradOut.Data[i] = rng.Float64()*2 - 1
			}
			gotIn := fused.Backward(gradOut)
			wantIn := ref.backward(gradOut)
			if !approxEqual(gotIn, wantIn, tol) {
				t.Fatalf("%v %dx%d->%d: fused backward ∂L/∂in deviates", act, sh.batch, sh.in, sh.out)
			}
			if !approxEqual(fused.GradW, ref.d.GradW, tol) {
				t.Fatalf("%v %dx%d->%d: fused GradW deviates", act, sh.batch, sh.in, sh.out)
			}
			for j := range fused.GradB {
				diff := fused.GradB[j] - ref.d.GradB[j]
				if diff < -tol || diff > tol {
					t.Fatalf("%v %dx%d->%d: fused GradB[%d] deviates", act, sh.batch, sh.in, sh.out, j)
				}
			}
		}
	}
}

// TestFlatParamsAliasViews verifies the arena invariant everything relies
// on: the matrices from Params()/Grads() are views into FlatParams()/
// FlatGrads(), so flat passes and per-matrix code see the same memory.
func TestFlatParamsAliasViews(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewMLP[float64](rng, ActTanh, 4, 6, 3)
	if got, want := len(m.FlatParams()), 4*6+6+6*3+3; got != want {
		t.Fatalf("FlatParams len = %d, want %d", got, want)
	}
	m.Params()[0].Set(0, 0, 42)
	if m.FlatParams()[0] != 42 {
		t.Fatal("Params()[0] does not alias FlatParams")
	}
	m.FlatParams()[len(m.FlatParams())-1] = 7 // last bias element
	ps := m.Params()
	last := ps[len(ps)-1]
	if last.At(0, last.Cols-1) != 7 {
		t.Fatal("FlatParams tail does not alias the last bias view")
	}
	m.FlatGrads()[0] = 3
	if m.Grads()[0].At(0, 0) != 3 {
		t.Fatal("FlatGrads does not alias Grads views")
	}
}

// TestStepFlatMatchesStep: the fused flat Adam pass must produce the
// same trajectory as the per-matrix Step on identical inputs.
func TestStepFlatMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := NewMLP[float64](rng, ActTanh, 3, 5, 2)
	b := a.Clone()
	optA, optB := NewAdam[float64](0.01), NewAdam[float64](0.01)
	for step := 0; step < 25; step++ {
		for i := range a.FlatGrads() {
			g := rng.Float64()*2 - 1
			a.FlatGrads()[i] = g
			b.FlatGrads()[i] = g
		}
		optA.Step(a.Params(), a.Grads())
		optB.FusedStep(b.FlatParams(), b.FlatGrads(), 1, nil, 0)
		for i, v := range a.FlatParams() {
			diff := v - b.FlatParams()[i]
			if diff < -1e-12 || diff > 1e-12 {
				t.Fatalf("step %d: flat Adam deviates at %d: %g vs %g", step, i, v, b.FlatParams()[i])
			}
		}
	}
}

// TestMLPBackwardSkipsInputGradient: an MLP's first layer computes no
// ∂L/∂in — nothing reads it — and that must be invisible in every
// parameter gradient. The reference is the same network with the skip
// switched off, so each layer still runs its g·Wᵀ product; FlatGrads
// must match bit for bit at the deployed precision and at float64.
func TestMLPBackwardSkipsInputGradient(t *testing.T) {
	t.Run("f32", testMLPBackwardSkipsInputGradient[float32])
	t.Run("f64", testMLPBackwardSkipsInputGradient[float64])
}

func testMLPBackwardSkipsInputGradient[E tensor.Element](t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := NewMLP[E](rng, ActTanh, 37, 37, 21, 5)
	ref := m.Clone()
	ref.dense[0].noGradIn = false

	in, gradOut := tensor.New[E](9, 37), tensor.New[E](9, 5)
	for i := range in.Data {
		in.Data[i] = E(rng.Float64()*2 - 1)
	}
	for i := range gradOut.Data {
		gradOut.Data[i] = E(rng.Float64()*2 - 1)
	}

	m.Forward(in)
	m.Backward(gradOut)
	if first := m.dense[0]; first.cur.gradIn != nil {
		t.Fatal("the first layer still holds ∂L/∂in scratch")
	}

	ref.Forward(in)
	ref.bindGrads() // the layers are driven directly, below MLP.Backward
	g := gradOut
	for i := len(ref.dense) - 1; i >= 0; i-- {
		if g = ref.dense[i].Backward(g); g == nil {
			t.Fatalf("reference layer %d returned no ∂L/∂in", i)
		}
	}
	if g.Rows != 9 || g.Cols != 37 {
		t.Fatalf("reference ∂L/∂in is %dx%d, want 9x37", g.Rows, g.Cols)
	}
	for i, want := range ref.FlatGrads() {
		if got := m.FlatGrads()[i]; got != want {
			t.Fatalf("FlatGrads[%d] = %v, reference with every ∂L/∂in computed = %v", i, got, want)
		}
	}
}

// TestGradArenaAllocatedOnFirstUse: a network that only runs forward —
// a Clone serving as target network or hard-update spare — must carry no
// gradient arena, whichever forward path it takes and however its
// parameters are rewritten; Backward, Grads and FlatGrads each bind one,
// aligned with the parameters.
func TestGradArenaAllocatedOnFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := NewMLP[float32](rng, ActTanh, 6, 6, 3)
	in := tensor.New[float32](4, 6)
	for i := range in.Data {
		in.Data[i] = float32(rng.Float64())
	}

	fwd := m.Clone()
	fwd.Forward(in)
	fwd.ForwardVec(in.Data[:6])
	fwd.CopyParamsFrom(m)
	if err := fwd.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	if fwd.gradData != nil || fwd.grads != nil || fwd.dense[0].GradW != nil {
		t.Fatal("a forward-only network allocated its gradient arena")
	}

	for name, touch := range map[string]func(*MLP[float32]){
		"Backward":  func(n *MLP[float32]) { n.Forward(in); n.Backward(tensor.New[float32](4, 3)) },
		"Grads":     func(n *MLP[float32]) { n.Grads() },
		"FlatGrads": func(n *MLP[float32]) { n.FlatGrads() },
	} {
		n := m.Clone()
		touch(n)
		if len(n.FlatGrads()) != n.NumParams() || len(n.Grads()) != len(n.Params()) {
			t.Fatalf("%s: gradient arena has %d values in %d views for %d parameters in %d",
				name, len(n.FlatGrads()), len(n.Grads()), n.NumParams(), len(n.Params()))
		}
		n.FlatGrads()[n.NumParams()-1] = 7
		if last := n.dense[len(n.dense)-1]; last.GradB[len(last.GradB)-1] != 7 {
			t.Fatalf("%s: the layers' gradient views do not alias the arena", name)
		}
	}
}

// TestForwardVecIntoAllocFree: the action path must not allocate, and the
// batch-1 buffers must survive interleaved minibatch forwards (the tick
// loop alternates SelectAction with TrainStep).
func TestForwardVecIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := NewCAPESNetwork[float64](rng, 64, 5)
	obs := make([]float64, 64)
	for i := range obs {
		obs[i] = rng.Float64()
	}
	dst := make([]float64, 5)
	batch := tensor.New[float64](32, 64)
	batch.XavierFill(rng, 64, 64)

	m.ForwardVecInto(dst, obs) // warm the batch-1 buffers
	m.Forward(batch)           // warm the batch-32 buffers
	allocs := testing.AllocsPerRun(50, func() {
		m.Forward(batch)
		m.ForwardVecInto(dst, obs)
	})
	if allocs != 0 {
		t.Fatalf("interleaved Forward/ForwardVecInto allocates %v per run", allocs)
	}

	// And interleaving must not change results vs. a fresh forward.
	want := m.ForwardVec(obs)
	for i := range want {
		if want[i] != dst[i] {
			t.Fatalf("interleaved ForwardVecInto diverges at %d: %g vs %g", i, dst[i], want[i])
		}
	}
}
