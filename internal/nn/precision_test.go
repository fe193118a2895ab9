package nn

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"capes/internal/tensor"
)

// TestCheckpointSamePrecisionBitExact: a round trip at either precision
// must reproduce the arena bit for bit (the format stores the arena
// natively, no re-encoding through another precision).
func TestCheckpointSamePrecisionBitExact(t *testing.T) {
	t.Run("float64", func(t *testing.T) { checkpointRoundTrip[float64](t) })
	t.Run("float32", func(t *testing.T) { checkpointRoundTrip[float32](t) })
}

func checkpointRoundTrip[E tensor.Element](t *testing.T) {
	t.Helper()
	m := NewCAPESNetwork[E](rand.New(rand.NewSource(7)), 20, 5)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load[E](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m.FlatParams() {
		if got.FlatParams()[i] != v {
			t.Fatalf("param %d not bit-exact after round trip", i)
		}
	}
	prec, sizes, err := CheckpointInfo(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if prec != m.Precision() {
		t.Fatalf("precision tag %q, want %q", prec, m.Precision())
	}
	if len(sizes) != 4 || sizes[0] != 20 || sizes[3] != 5 {
		t.Fatalf("sizes = %v", sizes)
	}
}

// TestCheckpointLoadsOnlyAtItsOwnPrecision: a checkpoint restores at the
// precision it was saved at and no other. A float64-tagged file handed to
// the float32 file loader, and a float32 stream handed to the float64
// loader, are errors that name both precisions; a named element type has
// no checkpoint encoding at all.
func TestCheckpointLoadsOnlyAtItsOwnPrecision(t *testing.T) {
	m64 := NewMLP[float64](rand.New(rand.NewSource(11)), ActReLU, 3, 5, 2)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := m64.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m32, err := LoadFile[float32](path)
	if m32 != nil || err == nil ||
		!strings.Contains(err.Error(), "float64") || !strings.Contains(err.Error(), "float32") {
		t.Fatalf("float64 file as float32: model %v, err %v; want an error naming both precisions", m32, err)
	}

	var buf bytes.Buffer
	if err := NewCAPESNetwork[float32](rand.New(rand.NewSource(9)), 10, 3).Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load[float64](&buf)
	if got != nil || err == nil ||
		!strings.Contains(err.Error(), "float32") || !strings.Contains(err.Error(), "float64") {
		t.Fatalf("float32 stream as float64: model %v, err %v; want an error naming both precisions", got, err)
	}

	type named float32
	if err := NewMLP[named](nil, ActTanh, 2, 1).Save(io.Discard); err == nil {
		t.Fatal("a named element type saved a checkpoint")
	}
}

// TestFusedStepGenericMatchesFloat32Sweep: a named ~float32 element
// type takes FusedStep's generic loop, concrete float32 the tier sweeps
// in tensor; both evaluate one expression tree, so parameters, moments
// and targets must agree bit for bit in all three target modes.
func TestFusedStepGenericMatchesFloat32Sweep(t *testing.T) {
	type named float32
	const n = 1003
	rng := rand.New(rand.NewSource(13))
	p32, t32, g32 := make([]float32, n), make([]float32, n), make([]float32, n)
	pN, tN, gN := make([]named, n), make([]named, n), make([]named, n)
	for i := range p32 {
		p32[i], t32[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		pN[i], tN[i] = named(p32[i]), named(t32[i])
	}
	opt32, optN := NewAdam[float32](1e-3), NewAdam[named](1e-3)
	for step := 0; step < 6; step++ {
		for i := range g32 {
			g32[i] = float32(rng.NormFloat64())
			gN[i] = named(g32[i])
		}
		switch step % 3 {
		case 0:
			opt32.FusedStep(p32, g32, 0.5, nil, 0)
			optN.FusedStep(pN, gN, 0.5, nil, 0)
		case 1:
			opt32.FusedStep(p32, g32, 0.5, t32, 0.01)
			optN.FusedStep(pN, gN, 0.5, tN, 0.01)
		case 2:
			opt32.FusedStep(p32, g32, 0.5, t32, 1)
			optN.FusedStep(pN, gN, 0.5, tN, 1)
		}
		for i := range p32 {
			if p32[i] != float32(pN[i]) || t32[i] != float32(tN[i]) ||
				opt32.fm[i] != float32(optN.fm[i]) || opt32.fv[i] != float32(optN.fv[i]) {
				t.Fatalf("step %d: generic loop deviates from the float32 sweep at %d", step, i)
			}
		}
	}
}

// TestFusedStepHardUpdateCopiesExactly: α = 1, a hard update, runs the
// soft sweep, which computes θ⁻·0 + θ·1 — exactly θ for any finite θ⁻.
// Checked on every kernel tier the host has and on the generic loop.
func TestFusedStepHardUpdateCopiesExactly(t *testing.T) {
	const n = 1003 // a ragged tail behind the vector loop
	rng := rand.New(rand.NewSource(31))
	fill := func() (params, grads, target []float32) {
		params, grads, target = make([]float32, n), make([]float32, n), make([]float32, n)
		for i := range params {
			params[i] = float32(rng.NormFloat64())
			grads[i] = float32(rng.NormFloat64())
			target[i] = float32(rng.NormFloat64() * 1e30) // stale, far from θ
		}
		return params, grads, target
	}
	orig := tensor.KernelTier()
	defer tensor.SetKernelTier(orig)
	for _, tier := range []string{"scalar", "avx2", "avx512"} {
		if applied, _ := tensor.SetKernelTier(tier); applied != tier {
			continue
		}
		params, grads, target := fill()
		NewAdam[float32](1e-2).FusedStep(params, grads, 1, target, 1)
		for i := range params {
			if target[i] != params[i] {
				t.Fatalf("%s: α=1 target[%d] = %v, want %v", tier, i, target[i], params[i])
			}
		}
	}
	params, grads, target := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range params {
		params[i], grads[i], target[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()*1e300
	}
	NewAdam[float64](1e-2).FusedStep(params, grads, 1, target, 1)
	for i := range params {
		if target[i] != params[i] {
			t.Fatalf("generic: α=1 target[%d] = %v, want %v", i, target[i], params[i])
		}
	}
}

// TestMLPFloat32MatchesFloat64Forward holds a float32 network built from
// the same weights to the float64 reference within precision-scaled
// tolerance — the end-to-end (matmul + fused bias/tanh) counterpart of
// the kernel-level golden tests in internal/tensor.
func TestMLPFloat32MatchesFloat64Forward(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m64 := NewCAPESNetwork[float64](rng, 64, 5)
	m32 := NewCAPESNetwork[float32](rand.New(rand.NewSource(0)), 64, 5)
	tensor.Convert(m32.FlatParams(), m64.FlatParams())
	obs64 := make([]float64, 64)
	obs32 := make([]float32, 64)
	for i := range obs64 {
		obs64[i] = rng.Float64()*2 - 1
		obs32[i] = float32(obs64[i])
	}
	q64 := m64.ForwardVec(obs64)
	q32 := m32.ForwardVec(obs32)
	// Two hidden layers of width 64 → error compounds over ~2×64-long
	// accumulations plus the tanh rounding.
	tol := 64 * 64 * 0x1p-23 // float32 epsilon
	for i := range q64 {
		if d := math.Abs(q64[i] - float64(q32[i])); d > tol {
			t.Fatalf("Q[%d]: float32 %v vs float64 %v (|Δ|=%g > %g)", i, q32[i], q64[i], d, tol)
		}
	}
}

func TestMLPBytesTracksPrecision(t *testing.T) {
	m32 := NewMLP[float32](rand.New(rand.NewSource(1)), ActTanh, 10, 20, 5)
	m64 := NewMLP[float64](rand.New(rand.NewSource(1)), ActTanh, 10, 20, 5)
	n := 10*20 + 20 + 20*5 + 5
	if m32.Bytes() != 4*n {
		t.Fatalf("float32 Bytes = %d, want %d", m32.Bytes(), 4*n)
	}
	if m64.Bytes() != 8*n {
		t.Fatalf("float64 Bytes = %d, want %d", m64.Bytes(), 8*n)
	}
	if m32.Precision() != "float32" || m64.Precision() != "float64" {
		t.Fatal("Precision() tags wrong")
	}
}
