package experiment

import (
	"errors"
	"strings"
	"testing"

	"capes/internal/capes"
)

func TestGridCartesianProduct(t *testing.T) {
	axes := []HyperAxis{
		{Name: "learning_rate", Values: []float64{1e-4, 1e-3}},
		{Name: "gamma", Values: []float64{0.9, 0.95, 0.99}},
	}
	pts := hyperGrid(axes)
	if len(pts) != 6 {
		t.Fatalf("grid size = %d, want 6", len(pts))
	}
	seen := map[string]bool{}
	for _, p := range pts {
		seen[p.String()] = true
	}
	if len(seen) != 6 {
		t.Fatalf("duplicate grid points: %v", seen)
	}
	// Empty axes are skipped.
	pts2 := hyperGrid([]HyperAxis{{Name: "x"}, {Name: "gamma", Values: []float64{0.9}}})
	if len(pts2) != 1 {
		t.Fatalf("empty axis handling: %d points", len(pts2))
	}
	// No axes → one empty point (the base configuration).
	if len(hyperGrid(nil)) != 1 {
		t.Fatal("empty grid must contain the base point")
	}
}

func TestApplyAllNames(t *testing.T) {
	base := capes.DefaultHyperparameters()
	h, err := applyHyper(base, HyperPoint{
		"learning_rate":         1e-3,
		"gamma":                 0.9,
		"target_update_rate":    0.05,
		"minibatch_size":        16,
		"epsilon_final":         0.1,
		"epsilon_bump":          0.3,
		"exploration_period":    100,
		"ticks_per_observation": 4,
		"train_every":           2,
		"gradient_clip":         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.AdamLearningRate != 1e-3 || h.DiscountRate != 0.9 || h.TargetUpdateRate != 0.05 ||
		h.MinibatchSize != 16 || h.EpsilonFinal != 0.1 || h.EpsilonBump != 0.3 ||
		h.ExplorationPeriod != 100 || h.TicksPerObservation != 4 ||
		h.TrainEvery != 2 || h.GradientClip != 5 {
		t.Fatalf("apply result = %+v", h)
	}
	// Base must be unchanged (value semantics).
	if base.AdamLearningRate != 1e-4 {
		t.Fatal("Apply mutated the base")
	}
}

func TestApplyRejectsUnknownAndInvalid(t *testing.T) {
	if _, err := applyHyper(capes.DefaultHyperparameters(), HyperPoint{"bogus": 1}); err == nil {
		t.Fatal("unknown name must fail")
	}
	if _, err := applyHyper(capes.DefaultHyperparameters(), HyperPoint{"gamma": 1.5}); err == nil {
		t.Fatal("invalid value must fail validation")
	}
}

func TestSearchRanksByScore(t *testing.T) {
	axes := []HyperAxis{{Name: "learning_rate", Values: []float64{1e-4, 1e-3, 1e-2}}}
	// Synthetic objective: peak score at lr=1e-3.
	eval := func(h capes.Hyperparameters, seed int64) (float64, error) {
		switch h.AdamLearningRate {
		case 1e-3:
			return 10 + float64(seed), nil
		case 1e-4:
			return 5, nil
		default:
			return 1, nil
		}
	}
	results, errs := searchHyper(capes.DefaultHyperparameters(), axes, eval, []int64{1, 2})
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Point["learning_rate"] != 1e-3 {
		t.Fatalf("best point = %v", results[0].Point)
	}
	// Mean over seeds 1,2 → 11.5.
	if results[0].Score != 11.5 {
		t.Fatalf("best score = %v", results[0].Score)
	}
	if results[2].Score > results[1].Score {
		t.Fatal("results not sorted descending")
	}
}

func TestSearchCollectsEvalErrors(t *testing.T) {
	axes := []HyperAxis{{Name: "gamma", Values: []float64{0.9, 0.99}}}
	boom := errors.New("boom")
	eval := func(h capes.Hyperparameters, seed int64) (float64, error) {
		if h.DiscountRate == 0.99 {
			return 0, boom
		}
		return 1, nil
	}
	results, errs := searchHyper(capes.DefaultHyperparameters(), axes, eval, nil)
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if len(errs) != 1 || !errors.Is(errs[0], boom) {
		t.Fatalf("errs = %v", errs)
	}
}

func TestSearchSkipsInvalidPoints(t *testing.T) {
	axes := []HyperAxis{{Name: "gamma", Values: []float64{0.9, 2.0}}}
	eval := func(h capes.Hyperparameters, seed int64) (float64, error) { return 1, nil }
	results, errs := searchHyper(capes.DefaultHyperparameters(), axes, eval, nil)
	if len(results) != 1 || len(errs) != 1 {
		t.Fatalf("results=%d errs=%d", len(results), len(errs))
	}
}

func TestPointString(t *testing.T) {
	p := HyperPoint{"b": 2, "a": 1}
	if got := p.String(); got != "{a=1 b=2}" {
		t.Fatalf("String = %q", got)
	}
	if !strings.HasPrefix(HyperPoint{}.String(), "{") {
		t.Fatal("empty point must render")
	}
}
