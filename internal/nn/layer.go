// Package nn implements the deep neural network used by the CAPES DRL
// engine: a multi-layer perceptron with tanh hidden layers and a linear
// output head (one Q-value per action, §3.4 of the paper), trained with
// mean-squared error and the Adam optimizer.
//
// Every layer, the MLP and the optimizers are generic over the element
// type E ~float32|~float64 (tensor.Element). The deployed DQN path
// instantiates at float32 — the train step is memory-bandwidth-bound, so
// halving the element size is the dominant remaining lever — while
// float64 remains the golden reference the equivalence tests compare
// against. Loss sums, gradient norms and finiteness checks always
// accumulate in float64, so the float32 instantiation keeps full-fidelity
// divergence guards.
//
// The implementation is minibatch-oriented: a forward pass maps a
// batch×in matrix to a batch×out matrix, and Backward propagates the
// output-side gradient back while accumulating parameter gradients, the
// exact structure TensorFlow provided in the original prototype.
//
// Dense layers fuse their activation: the forward pass applies
// bias-add and the nonlinearity in one sweep over the affine output, and
// the backward pass folds the activation derivative into the incoming
// gradient before the matrix products — there are no separate
// activation-layer passes (or buffers) on the training hot path. An
// MLP's parameters, gradients, and the optimizer's moments each live in
// one contiguous backing slice (see mlp.go), so whole-model passes such
// as Adam, gradient clipping, and target-network updates are single
// sweeps over flat memory. That arena is also
// what a checkpoint is: checkpoint.go has the byte layout of the file and
// the checks Load makes before it allocates.
package nn

import (
	"fmt"
	"math/rand"

	"capes/internal/tensor"
)

// denseScratch is one set of forward/backward buffers for a fixed batch
// size. A Dense keeps two: one pinned to batch 1 so the action path
// (SelectAction's 1×N forward every tick) never evicts — or reallocates —
// the training-batch buffers it interleaves with.
type denseScratch[E tensor.Element] struct {
	out     *tensor.Matrix[E] // activated forward output
	gradIn  *tensor.Matrix[E] // ∂L/∂input; nil when the layer has noGradIn
	gradPre *tensor.Matrix[E] // ∂L/∂(pre-activation); nil when Act == ActNone
}

// Dense is a fully connected layer with a fused activation:
// out = act(in·W + b), with W of shape in×out and bias b of length out.
// Act == ActNone gives the plain affine layer (the Q-value head).
type Dense[E tensor.Element] struct {
	In, Out int
	W       *tensor.Matrix[E]
	B       []E
	Act     Activation

	// Gradients accumulated by Backward.
	GradW *tensor.Matrix[E]
	GradB []E

	// noGradIn marks a layer whose ∂L/∂input nothing reads — an MLP's
	// first layer, whose input is the observation batch. Backward then
	// stops after GradW/GradB and returns nil: no g·Wᵀ product (as large
	// as the layer's forward GEMM) and no scratch for its result.
	noGradIn bool

	// Parameter/gradient views handed out by Params/Grads, built once.
	pviews [2]*tensor.Matrix[E]
	gviews [2]*tensor.Matrix[E]

	input    *tensor.Matrix[E] // saved forward input (not owned)
	scratch1 denseScratch[E]   // batch == 1 (action path)
	scratchN denseScratch[E]   // training batches
	cur      *denseScratch[E]  // scratch used by the last Forward
}

// newDenseArena builds a Dense whose parameters and gradients are views
// into caller-provided backing slices of length in*out+out (weights
// first, then bias). NewMLP passes segments of its contiguous parameter
// arena so a whole network's parameters are one allocation, and nil
// grads: it binds them when the network first needs any (bindGrads). A
// nil rng skips the weight initialisation.
func newDenseArena[E tensor.Element](in, out int, act Activation, params, grads []E, rng *rand.Rand) *Dense[E] {
	if len(params) != in*out+out {
		panic(fmt.Sprintf("nn: dense arena got %d values for %d×%d+%d", len(params), in, out, out))
	}
	wN := in * out
	d := &Dense[E]{
		In:  in,
		Out: out,
		Act: act,
		W:   tensor.FromSlice(in, out, params[:wN:wN]),
		B:   params[wN : wN+out : wN+out],
	}
	if rng != nil {
		d.W.XavierFill(rng, in, out)
	}
	d.pviews = [2]*tensor.Matrix[E]{d.W, tensor.FromSlice(1, out, d.B)}
	if grads != nil {
		d.bindGrads(grads)
	}
	return d
}

// bindGrads points GradW/GradB at a backing slice laid out like the
// parameters (in*out weights, then out biases).
func (d *Dense[E]) bindGrads(grads []E) {
	wN := d.In * d.Out
	if len(grads) != wN+d.Out {
		panic(fmt.Sprintf("nn: dense gradient arena got %d values for %d×%d+%d", len(grads), d.In, d.Out, d.Out))
	}
	d.GradW = tensor.FromSlice(d.In, d.Out, grads[:wN:wN])
	d.GradB = grads[wN : wN+d.Out : wN+d.Out]
	d.gviews = [2]*tensor.Matrix[E]{d.GradW, tensor.FromSlice(1, d.Out, d.GradB)}
}

// ensure returns scratch buffers for the batch size, reallocating only
// when a non-unit batch size changes.
func (d *Dense[E]) ensure(batch int) *denseScratch[E] {
	s := &d.scratchN
	if batch == 1 {
		s = &d.scratch1
	}
	if s.out == nil || s.out.Rows != batch {
		s.out = tensor.New[E](batch, d.Out)
		if !d.noGradIn {
			s.gradIn = tensor.New[E](batch, d.In)
		}
		if d.Act != ActNone {
			s.gradPre = tensor.New[E](batch, d.Out)
		}
	}
	d.cur = s
	return s
}

// Forward computes act(in·W + b) for a batch: one matrix product, then a
// single fused bias-add+activation sweep. The returned matrix is owned
// by the layer and valid until the next Forward call at the same batch
// size (batch-1 and batch-N buffers are independent).
func (d *Dense[E]) Forward(in *tensor.Matrix[E]) *tensor.Matrix[E] {
	if in.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense forward got %d features, want %d", in.Cols, d.In))
	}
	s := d.ensure(in.Rows)
	d.input = in
	tensor.MulInto(s.out, in, d.W)
	cols := d.Out
	switch d.Act {
	case ActTanh:
		// The concrete float32 instantiation takes the BiasTanh32 sweep
		// (FastTanh32, a few-ulp rational approximation in a pure
		// float32 pipeline, on the active SIMD tier); float64 stays on
		// math.Tanh as the reference.
		if data, ok := any(s.out.Data).([]float32); ok {
			bias := any(d.B).([]float32)
			for r := 0; r < s.out.Rows; r++ {
				tensor.BiasTanh32(data[r*cols:(r+1)*cols], bias)
			}
			break
		}
		for r := 0; r < s.out.Rows; r++ {
			row := s.out.Data[r*cols : (r+1)*cols]
			for j, bias := range d.B {
				row[j] = tensor.Tanh(row[j] + bias)
			}
		}
	case ActReLU:
		for r := 0; r < s.out.Rows; r++ {
			row := s.out.Data[r*cols : (r+1)*cols]
			for j, bias := range d.B {
				if v := row[j] + bias; v > 0 {
					row[j] = v
				} else {
					row[j] = 0
				}
			}
		}
	default:
		s.out.AddRowVector(d.B)
	}
	return s.out
}

// Backward takes ∂L/∂out and returns ∂L/∂in (nil for an MLP's first
// layer, see noGradIn), accumulating ∂L/∂W and ∂L/∂b into GradW/GradB
// (overwriting them — one minibatch per step).
// The activation derivative is folded in with one fused sweep: tanh'
// is recovered from the cached activated output as 1−y², ReLU' as the
// sign of the output.
func (d *Dense[E]) Backward(gradOut *tensor.Matrix[E]) *tensor.Matrix[E] {
	s := d.cur
	g := gradOut
	switch d.Act {
	case ActTanh:
		gp := s.gradPre
		for i, y := range s.out.Data {
			gp.Data[i] = gradOut.Data[i] * (1 - y*y)
		}
		g = gp
	case ActReLU:
		gp := s.gradPre
		for i, y := range s.out.Data {
			if y > 0 {
				gp.Data[i] = gradOut.Data[i]
			} else {
				gp.Data[i] = 0
			}
		}
		g = gp
	}
	// ∂L/∂W = inᵀ · g
	tensor.MulTransAInto(d.GradW, d.input, g)
	// ∂L/∂b = column sums of g
	g.ColSumsInto(d.GradB)
	if d.noGradIn {
		return nil
	}
	// ∂L/∂in = g · Wᵀ
	tensor.MulTransBInto(s.gradIn, g, d.W)
	return s.gradIn
}

// Params returns the layer's parameter matrices; the bias is exposed as
// a 1×Out matrix view for uniform optimizer handling. The views share
// storage with the layer (and its arena), so mutations through them are
// seen by the flat-parameter fast paths too.
func (d *Dense[E]) Params() []*tensor.Matrix[E] {
	return d.pviews[:]
}

// Grads returns the gradient matrices aligned with Params.
func (d *Dense[E]) Grads() []*tensor.Matrix[E] {
	return d.gviews[:]
}
