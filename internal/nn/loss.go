package nn

import (
	"math"

	"capes/internal/tensor"
)

// Loss functions. Scalar losses and norms are always accumulated and
// returned in float64 — even for float32 networks — so the training
// loop's divergence guards and Figure-5 loss traces keep full fidelity
// at either precision (part of the float32 tolerance audit: a reduction
// over ~10⁵ float32 squares must not lose the blowup it is watching for).

// MaskedMSE computes the Q-learning loss of Equation 1: for each row i of
// the minibatch, only the output unit for the action actually taken,
// actions[i], contributes to the loss:
//
//	L = (1/batch) Σᵢ (targets[i] − pred[i][actions[i]])²
//
// It writes ∂L/∂pred into gradOut (same shape as pred; all other entries
// zero) and returns the scalar loss. This matches the paper's choice of a
// network that emits Q-values for every action in one forward pass while
// training only the taken action's head.
func MaskedMSE[E tensor.Element](pred *tensor.Matrix[E], actions []int, targets []E, gradOut *tensor.Matrix[E]) float64 {
	if len(actions) != pred.Rows || len(targets) != pred.Rows {
		panic("nn: MaskedMSE batch size mismatch")
	}
	if gradOut.Rows != pred.Rows || gradOut.Cols != pred.Cols {
		panic("nn: MaskedMSE gradOut shape mismatch")
	}
	gradOut.Zero()
	n := float64(pred.Rows)
	var loss float64
	for i := 0; i < pred.Rows; i++ {
		a := actions[i]
		if a < 0 || a >= pred.Cols {
			panic("nn: MaskedMSE action index out of range")
		}
		diff := float64(pred.At(i, a) - targets[i])
		loss += diff * diff
		// d/dq of (q−t)²/n = 2(q−t)/n
		gradOut.Set(i, a, E(2*diff/n))
	}
	return loss / n
}

// FlatNorm returns the L2 norm of a flat gradient arena in one pass,
// accumulated in float64 (a float32 accumulator could overflow exactly
// when the norm matters most — mid-divergence). The training step uses
// it to derive the global-norm clip scale that Adam.FusedStep applies
// while reading gradients, so the arena itself is never rescaled — the
// engine's only clip path. The concrete float32 arena goes through
// tensor.SumSquares32, whose lane-blocked float64 sum is the same bits
// on every kernel tier; other element types sum sequentially.
func FlatNorm[E tensor.Element](grads []E) float64 {
	if g32, ok := any(grads).([]float32); ok {
		return math.Sqrt(tensor.SumSquares32(g32))
	}
	var ss float64
	for _, g := range grads {
		f := float64(g)
		ss += f * f
	}
	return math.Sqrt(ss)
}
