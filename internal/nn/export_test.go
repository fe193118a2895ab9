package nn

import (
	"io"

	"capes/internal/tensor"
)

// ForwardVec runs a single observation (len == InputSize) and returns a
// fresh copy of the output vector.
func (m *MLP[E]) ForwardVec(obs []E) []E {
	return m.ForwardVecInto(make([]E, m.OutputSize()), obs)
}

// CopyParamsFrom copies all parameters from src in one flat pass.
func (m *MLP[E]) CopyParamsFrom(src *MLP[E]) {
	if len(m.paramData) != len(src.paramData) {
		panic("nn: CopyParamsFrom shape mismatch")
	}
	copy(m.paramData, src.paramData)
}

// CheckpointInfo reports a checkpoint's precision tag and layer sizes
// from its header alone, without reading the arena or verifying the
// checksum.
func CheckpointInfo(r io.Reader) (precision string, sizes []int, err error) {
	_, h, err := readCheckpointHeader(r)
	if err != nil {
		return "", nil, err
	}
	return tagName(h.precision), h.sizes, nil
}

// Grads returns the gradient matrices aligned with Params: each layer's
// GradW and its GradB as a 1×Out view, all aliasing FlatGrads.
func (m *MLP[E]) Grads() []*tensor.Matrix[E] {
	m.bindGrads()
	var g []*tensor.Matrix[E]
	for _, d := range m.dense {
		g = append(g, d.GradW, tensor.FromSlice(1, d.Out, d.GradB))
	}
	return g
}
