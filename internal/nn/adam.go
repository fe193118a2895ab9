package nn

import (
	"fmt"
	"math"

	"capes/internal/tensor"
)

// Adam implements the Adam stochastic-gradient optimizer (Kingma & Ba,
// 2015), the optimizer the paper selects for training the Q-network with
// learning rate 0.0001 (Table 1). The moments are kept at the model's
// element precision E; the bias-correction factors are computed in
// float64 every step and rounded once.
type Adam[E tensor.Element] struct {
	LR      float64 // learning rate (Table 1: 0.0001)
	Beta1   float64 // first-moment decay, default 0.9
	Beta2   float64 // second-moment decay, default 0.999
	Epsilon float64 // numerical-stability constant, default 1e-8

	step int
	m    []*tensor.Matrix[E] // first-moment estimates, aligned with params
	v    []*tensor.Matrix[E] // second-moment estimates

	fm []E // flat first moments (FusedStep), aligned with the arena
	fv []E // flat second moments
}

// NewAdam returns an Adam optimizer with the standard β/ε defaults. The
// type parameter selects the precision of the parameters it will step.
func NewAdam[E tensor.Element](lr float64) *Adam[E] {
	return &Adam[E]{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update: params[i] -= lr · m̂/(√v̂+ε) using the
// gradients in grads. Moment buffers are lazily allocated to match the
// parameter shapes on the first call.
func (a *Adam[E]) Step(params, grads []*tensor.Matrix[E]) {
	if len(params) != len(grads) {
		panic("nn: Adam params/grads length mismatch")
	}
	if a.m == nil {
		a.m = make([]*tensor.Matrix[E], len(params))
		a.v = make([]*tensor.Matrix[E], len(params))
		for i, p := range params {
			a.m[i] = tensor.New[E](p.Rows, p.Cols)
			a.v[i] = tensor.New[E](p.Rows, p.Cols)
		}
	}
	a.step++
	// Bias-corrected learning rate: lr·√(1−β₂ᵗ)/(1−β₁ᵗ).
	t := float64(a.step)
	lrT := E(a.LR * math.Sqrt(1-math.Pow(a.Beta2, t)) / (1 - math.Pow(a.Beta1, t)))
	b1, b2, eps := E(a.Beta1), E(a.Beta2), E(a.Epsilon)
	for i, p := range params {
		g := grads[i]
		mi, vi := a.m[i], a.v[i]
		for j, gj := range g.Data {
			mi.Data[j] = b1*mi.Data[j] + (1-b1)*gj
			vi.Data[j] = b2*vi.Data[j] + (1-b2)*gj*gj
			p.Data[j] -= lrT * mi.Data[j] / (tensor.Sqrt(vi.Data[j]) + eps)
		}
	}
}

// FusedStep applies one Adam update over a flat parameter arena (see
// MLP.FlatParams/FlatGrads) with the moments stored flat, and folds the
// rest of the per-step parameter traffic into the same sweep: each gradient is scaled by gradScale as it
// is read (global-norm clipping without a separate scale pass over the
// arena — the grads slice itself is left unscaled), and when target is
// non-nil the target network is updated with the freshly stepped
// parameter in place: the soft update θ⁻ = θ⁻(1−α) + θα for α < 1, or a
// straight copy θ⁻ = θ for α == 1 (the double-buffered hard update — the
// "copy" costs nothing extra because the sweep already holds θ in a
// register). One pass touches all five streams (params, grads, both
// moments, target) instead of three separate kernels re-reading them.
//
// The sweep runs over the whole arena in one call on the calling
// goroutine and allocates nothing in steady state. Concrete float32
// arenas (the deployed engine precision) route to the SIMD-tier sweeps
// in tensor (SQRTPS/DIVPS are IEEE-exact, so every tier matches the
// scalar loops below bit for bit); named element types and float64 run
// the generic scalar loops.
func (a *Adam[E]) FusedStep(params, grads []E, gradScale float64, target []E, alpha float64) {
	if len(params) != len(grads) {
		panic("nn: Adam params/grads length mismatch")
	}
	if target != nil && len(target) != len(params) {
		panic("nn: Adam target length mismatch")
	}
	if a.fm == nil {
		a.fm = make([]E, len(params))
		a.fv = make([]E, len(params))
	} else if len(a.fm) != len(params) {
		panic("nn: Adam flat moment size mismatch")
	}
	a.step++
	t := float64(a.step)
	lrT := E(a.LR * math.Sqrt(1-math.Pow(a.Beta2, t)) / (1 - math.Pow(a.Beta1, t)))
	b1, b2, eps, scale, al := E(a.Beta1), E(a.Beta2), E(a.Epsilon), E(gradScale), E(alpha)
	fm, fv := a.fm, a.fv

	if p32, ok := any(params).([]float32); ok {
		// The E→float32 conversions are value-preserving (E is float32
		// here) and the 1−x complements round exactly as the generic
		// loops' inline (1-b1)/(1-b2)/(1-al).
		g32, fm32, fv32 := any(grads).([]float32), any(fm).([]float32), any(fv).([]float32)
		lrT, b1, b2, eps, scale := float32(lrT), float32(b1), float32(b2), float32(eps), float32(scale)
		switch {
		case target == nil:
			tensor.AdamSweep32(p32, g32, fm32, fv32, lrT, b1, 1-b1, b2, 1-b2, eps, scale)
		case alpha == 1:
			tensor.AdamSweepHard32(p32, g32, fm32, fv32, any(target).([]float32), lrT, b1, 1-b1, b2, 1-b2, eps, scale)
		default:
			al := float32(al)
			tensor.AdamSweepSoft32(p32, g32, fm32, fv32, any(target).([]float32), lrT, b1, 1-b1, b2, 1-b2, eps, scale, al, 1-al)
		}
		return
	}
	for j, g := range grads {
		gj := g * scale
		mj := b1*fm[j] + (1-b1)*gj
		vj := b2*fv[j] + (1-b2)*gj*gj
		fm[j], fv[j] = mj, vj
		p := params[j] - lrT*mj/(tensor.Sqrt(vj)+eps)
		params[j] = p
		switch {
		case target == nil:
		case alpha == 1:
			target[j] = p
		default:
			target[j] = target[j]*(1-al) + p*al
		}
	}
}

// StepCount returns the number of updates applied so far.
func (a *Adam[E]) StepCount() int { return a.step }

// FlatMoments returns the first and second moment arenas FusedStep keeps,
// aligned with the parameter arena — with StepCount the optimizer's whole
// state. Both are nil until the first flat step. The slices are the
// optimizer's own: read-only to the caller.
func (a *Adam[E]) FlatMoments() (m, v []E) { return a.fm, a.fv }

// RestoreFlat replaces the flat optimizer state with a copy of another
// optimizer's (a cluster worker taking over the leader's): its step count
// and its moments, both empty for an optimizer that has not stepped.
func (a *Adam[E]) RestoreFlat(step int, m, v []E) error {
	if step < 0 || len(m) != len(v) || (len(m) == 0) != (step == 0) {
		return fmt.Errorf("nn: Adam state of step %d with %d/%d moments", step, len(m), len(v))
	}
	if a.fm != nil && len(m) != 0 && len(m) != len(a.fm) {
		return fmt.Errorf("nn: %d Adam moments for a %d-parameter optimizer", len(m), len(a.fm))
	}
	a.step = step
	if len(m) == 0 {
		a.fm, a.fv = nil, nil
		return nil
	}
	if a.fm == nil {
		a.fm, a.fv = make([]E, len(m)), make([]E, len(m))
	}
	copy(a.fm, m)
	copy(a.fv, v)
	return nil
}
