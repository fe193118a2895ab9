package nn

import (
	"fmt"
	"math/rand"

	"capes/internal/tensor"
)

// Activation selects the hidden-layer nonlinearity.
type Activation int

// Supported activations. ActTanh is the paper's choice (§3.4). ActNone
// marks a plain affine layer (the linear Q-value head).
const (
	ActTanh Activation = iota
	ActReLU

	ActNone Activation = -1
)

func (a Activation) String() string {
	switch a {
	case ActTanh:
		return "tanh"
	case ActReLU:
		return "relu"
	case ActNone:
		return "none"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// MLP is a multi-layer perceptron: a stack of Dense layers with a fused
// activation on every layer except the last, whose output is linear (one
// scalar per action for a Q-network). The element type E selects the
// arithmetic precision; the deployed DQN engine instantiates MLP[float32]
// (half the parameter traffic of float64 on a memory-bound train step),
// while MLP[float64] remains the reference precision.
//
// All parameters live in one contiguous flat arena, all gradients in a
// second, laid out layer by layer (weights, then bias). FlatParams and
// FlatGrads expose them so the optimizer, gradient clipping, and
// target-network updates run as single passes over flat memory instead
// of per-matrix loops. The gradient arena exists only once something
// asks for it (Backward, Grads, FlatGrads): a network that only runs
// forward — the target network — carries none.
type MLP[E tensor.Element] struct {
	Sizes      []int // layer widths: input, hidden..., output
	Activation Activation

	dense  []*Dense[E]         // the layers, in order
	params []*tensor.Matrix[E] // cached per-matrix views into paramData

	paramData []E // flat parameter arena
	gradData  []E // flat gradient arena; nil until bindGrads

	vecIn tensor.Matrix[E] // reusable 1×in header for the vector paths
}

// arenaLen returns the flat parameter count for the given layer widths.
func arenaLen(sizes []int) int {
	n := 0
	for i := 0; i+1 < len(sizes); i++ {
		n += sizes[i]*sizes[i+1] + sizes[i+1]
	}
	return n
}

// NewMLP builds an MLP with the given layer widths. The CAPES network is
// NewMLP[E](rng, ActTanh, in, in, in, nActions): two hidden layers the
// same size as the input (Table 1 "number of hidden layers"=2, "hidden
// layer size"=input size). A nil rng leaves the weights zero, for a model
// whose parameters are about to be overwritten (checkpoint load, Clone).
func NewMLP[E tensor.Element](rng *rand.Rand, act Activation, sizes ...int) *MLP[E] {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP[E]{Sizes: append([]int(nil), sizes...), Activation: act}
	total := arenaLen(sizes)
	m.paramData = make([]E, total)
	off := 0
	for i := 0; i+1 < len(sizes); i++ {
		in, out := sizes[i], sizes[i+1]
		layerAct := act
		if i+2 == len(sizes) { // no activation on the output layer
			layerAct = ActNone
		}
		n := in*out + out
		d := newDenseArena(in, out, layerAct, m.paramData[off:off+n:off+n], nil, rng)
		off += n
		m.dense = append(m.dense, d)
		m.params = append(m.params, d.Params()...)
	}
	// Backward discards the first layer's ∂L/∂in (nothing sits below the
	// observation batch), so that layer never computes it.
	m.dense[0].noGradIn = true
	return m
}

// NewCAPESNetwork builds the paper's Q-network shape: two hidden layers of
// the same width as the input and a linear head with one output per action.
func NewCAPESNetwork[E tensor.Element](rng *rand.Rand, inputSize, nActions int) *MLP[E] {
	return NewMLP[E](rng, ActTanh, inputSize, inputSize, inputSize, nActions)
}

// bindGrads allocates the gradient arena on first use and points every
// layer's GradW/GradB at its segment of it.
func (m *MLP[E]) bindGrads() {
	if m.gradData != nil {
		return
	}
	m.gradData = make([]E, len(m.paramData))
	off := 0
	for _, d := range m.dense {
		n := d.In*d.Out + d.Out
		d.bindGrads(m.gradData[off : off+n : off+n])
		off += n
	}
}

// InputSize returns the expected feature count.
func (m *MLP[E]) InputSize() int { return m.Sizes[0] }

// OutputSize returns the output width (number of actions for a Q-network).
func (m *MLP[E]) OutputSize() int { return m.Sizes[len(m.Sizes)-1] }

// Forward runs a minibatch through the network. The result is owned by
// the network and valid until the next Forward at the same batch size
// (single-observation and minibatch forwards use independent buffers).
func (m *MLP[E]) Forward(in *tensor.Matrix[E]) *tensor.Matrix[E] {
	out := in
	for _, d := range m.dense {
		out = d.Forward(out)
	}
	return out
}

// ForwardVecInto runs a single observation through the network and
// writes the Q-values into dst (len == OutputSize), which it returns. It allocates nothing: the input
// header and every layer buffer on the 1×N path are reused across calls,
// so the per-tick action path stays off the garbage collector entirely.
func (m *MLP[E]) ForwardVecInto(dst, obs []E) []E {
	if len(dst) != m.OutputSize() {
		panic(fmt.Sprintf("nn: ForwardVecInto dst len %d, want %d", len(dst), m.OutputSize()))
	}
	m.vecIn.Rows, m.vecIn.Cols, m.vecIn.Data = 1, len(obs), obs
	out := m.Forward(&m.vecIn)
	copy(dst, out.Data[:out.Cols])
	return dst
}

// Backward propagates ∂L/∂out back through the network, leaving parameter
// gradients in each Dense layer (and hence in FlatGrads).
func (m *MLP[E]) Backward(gradOut *tensor.Matrix[E]) {
	m.bindGrads()
	g := gradOut
	for i := len(m.dense) - 1; i >= 0; i-- {
		g = m.dense[i].Backward(g)
	}
}

// Params returns all parameter matrices in a stable order. The slice and
// its views are cached — repeated calls allocate nothing — and the views
// alias FlatParams.
func (m *MLP[E]) Params() []*tensor.Matrix[E] { return m.params }

// FlatParams returns the network's parameters as one contiguous slice,
// laid out layer by layer (weights row-major, then bias). It aliases the
// matrices returned by Params.
func (m *MLP[E]) FlatParams() []E { return m.paramData }

// FlatGrads returns the gradient arena aligned with FlatParams.
func (m *MLP[E]) FlatGrads() []E {
	m.bindGrads()
	return m.gradData
}

// NumParams returns the total trainable parameter count.
func (m *MLP[E]) NumParams() int { return len(m.paramData) }

// Bytes returns the in-memory size of the model parameters (Table 2's
// "size of the DNN model": NumParams × the element size — 4 bytes at
// float32, 8 at float64).
func (m *MLP[E]) Bytes() int { return m.NumParams() * tensor.ElemSize[E]() }

// Precision names the element type ("float32" or "float64") — the same
// tag the checkpoint format records.
func (m *MLP[E]) Precision() string { return precisionName[E]() }

// Clone returns a deep copy with identical weights (used to spawn the
// target network from the online network).
func (m *MLP[E]) Clone() *MLP[E] {
	c := NewMLP[E](nil, m.Activation, m.Sizes...)
	c.CopyParamsFrom(m)
	return c
}

// CopyParamsFrom copies all parameters from src in one flat pass.
func (m *MLP[E]) CopyParamsFrom(src *MLP[E]) {
	if len(m.paramData) != len(src.paramData) {
		panic("nn: CopyParamsFrom shape mismatch")
	}
	copy(m.paramData, src.paramData)
}

// CheckFinite returns an error if any parameter is NaN/Inf, scanning the
// flat arena in one allocation-free pass. Exact at both precisions.
func (m *MLP[E]) CheckFinite() error {
	for i, v := range m.paramData {
		if !tensor.IsFinite(v) {
			return fmt.Errorf("nn: flat param %d: %w: %v", i, tensor.ErrNonFinite, v)
		}
	}
	return nil
}
