package tensor

// Exported float32 fused-Adam sweeps. nn's Adam.FusedStep routes its
// concrete-float32 arenas here so the moment/step/target update runs on
// the active SIMD tier (SQRTPS/DIVPS on amd64) instead of scalar
// sqrt/div — the sweep was ~11% of the float32 train step. All three
// entry points are bit-identical to the scalar expression
//
//	gj = grads[j]·scale
//	m  = β₁·m + (1−β₁)·gj
//	v  = β₂·v + (1−β₂)·gj·gj
//	p -= lrT·m/(√v+ε)
//
// at every tier and wherever the vector/tail boundary falls (see the
// rounding contract in simd_amd64.go), so the kernel tier never changes
// training trajectories. Callers pass 1−β₁, 1−β₂ (and 1−α) precomputed; all
// slices must share one length. The generic (float64 / named-type)
// sweep stays in nn — vectorizing the float64 optimizer is listed as a
// PERF.md follow-up.

// AdamSweep32 applies the plain fused Adam update over params/grads and
// the flat moment arenas fm/fv.
func AdamSweep32(params, grads, fm, fv []float32, lrT, b1, omb1, b2, omb2, eps, scale float32) {
	adamSweep32(params, grads, fm, fv, lrT, b1, omb1, b2, omb2, eps, scale)
}

// AdamSweepSoft32 is AdamSweep32 with the target-network soft update
// target[j] = target[j]·omal + p·al fused into the same pass.
func AdamSweepSoft32(params, grads, fm, fv, target []float32, lrT, b1, omb1, b2, omb2, eps, scale, al, omal float32) {
	adamSweepSoft32(params, grads, fm, fv, target, lrT, b1, omb1, b2, omb2, eps, scale, al, omal)
}

// AdamSweepHard32 is AdamSweep32 followed by the double-buffer fill
// target = params (the α=1 hard-update mode). The copy runs over the
// chunk just swept, so it stays cache-resident, and memmove is faster
// than folding a third store stream into the vector loop.
func AdamSweepHard32(params, grads, fm, fv, target []float32, lrT, b1, omb1, b2, omb2, eps, scale float32) {
	adamSweep32(params, grads, fm, fv, lrT, b1, omb1, b2, omb2, eps, scale)
	copy(target, params)
}
