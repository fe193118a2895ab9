package nn

import (
	"math/rand"
	"testing"

	"capes/internal/tensor"
)

// TestFusedStepBitIdenticalAcrossTiers pins the kernel-tier contract at
// the optimizer level: a float32 FusedStep trajectory — all three
// target modes, several steps deep, moments included — must be bit-
// identical on both tiers when the host has avx2, because VSQRTPS/VDIVPS
// round exactly like the scalar loops. Combined with the sharded-vs-serial
// test this means neither worker count nor CAPES_SIMD can change a
// training run.
func TestFusedStepBitIdenticalAcrossTiers(t *testing.T) {
	const n = 10_000 // odd tails exercised via n-1 slices below
	run := func(tier string, mode int) (params, target, fm []float32) {
		prev := tensor.KernelTier()
		if applied, err := tensor.SetKernelTier(tier); err != nil || applied != tier {
			t.Fatalf("SetKernelTier(%q) = %q, %v", tier, applied, err)
		}
		defer tensor.SetKernelTier(prev)
		rng := rand.New(rand.NewSource(67))
		params = make([]float32, n)
		target = make([]float32, n)
		grads := make([]float32, n)
		for i := range params {
			params[i] = float32(rng.NormFloat64())
			target[i] = float32(rng.NormFloat64())
		}
		opt := NewAdam[float32](1e-3)
		for step := 0; step < 4; step++ {
			for i := range grads {
				grads[i] = float32(rng.NormFloat64())
			}
			switch mode {
			case 0:
				opt.FusedStep(params[:n-1], grads[:n-1], 0.5, nil, 0)
			case 1:
				opt.FusedStep(params[:n-1], grads[:n-1], 0.5, target[:n-1], 0.01)
			case 2:
				opt.FusedStep(params[:n-1], grads[:n-1], 0.5, target[:n-1], 1)
			}
		}
		return params, target, opt.fm
	}
	orig := tensor.KernelTier()
	defer tensor.SetKernelTier(orig)
	if applied, _ := tensor.SetKernelTier("avx2"); applied != "avx2" {
		t.Skip("host has no avx2 tier to hold to the scalar sweep")
	}
	for mode, name := range []string{"plain", "soft", "alpha1"} {
		refP, refT, refM := run("scalar", mode)
		p, tg, fm := run("avx2", mode)
		for i := range refM { // the swept n-1 prefix
			if p[i] != refP[i] || tg[i] != refT[i] || fm[i] != refM[i] {
				t.Fatalf("avx2/%s deviates from scalar at %d", name, i)
			}
		}
		if p[n-1] != refP[n-1] || tg[n-1] != refT[n-1] {
			t.Fatalf("avx2/%s touched the element beyond the sweep", name)
		}
	}
}

// BenchmarkFusedStep isolates the fused Adam/clip/soft-update sweep at
// the obs256 Q-network arena size — the "Adam share of the train step"
// row PERF.md tracks across tiers.
func BenchmarkFusedStep(b *testing.B) {
	b.Run("f32", benchFusedStep[float32])
	b.Run("f64", benchFusedStep[float64])
}

func benchFusedStep[E tensor.Element](b *testing.B) {
	const n = 640*640*2 + 640*5
	rng := rand.New(rand.NewSource(1))
	params := make([]E, n)
	grads := make([]E, n)
	target := make([]E, n)
	for i := range params {
		params[i] = E(rng.NormFloat64())
		grads[i] = E(rng.NormFloat64())
	}
	opt := NewAdam[E](1e-4)
	opt.FusedStep(params, grads, 1, target, 0.01) // warm moments
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.FusedStep(params, grads, 1, target, 0.01)
	}
}
