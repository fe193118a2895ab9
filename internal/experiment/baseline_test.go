package experiment

import (
	"math"
	"testing"

	"capes/internal/capes"
)

func tunerSpace(t *testing.T) *capes.ActionSpace {
	t.Helper()
	s, err := capes.NewActionSpace(
		capes.Tunable{Name: "x", Min: 0, Max: 100, Step: 5, Default: 10},
		capes.Tunable{Name: "y", Min: 0, Max: 10, Step: 1, Default: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// quadratic objective peaked at (60, 3).
func quad(values []float64) float64 {
	dx := values[0] - 60
	dy := values[1] - 3
	return 100 - dx*dx/10 - dy*dy
}

func TestStatic(t *testing.T) {
	s := tunerSpace(t)
	r := staticDefault(s, quad)
	if r.Values[0] != 10 || r.Values[1] != 5 {
		t.Fatalf("static values = %v", r.Values)
	}
	if r.Probes != 1 {
		t.Fatalf("static probes = %d", r.Probes)
	}
	if r.Score != quad([]float64{10, 5}) {
		t.Fatal("static score mismatch")
	}
}

func TestHillClimbFindsPeak(t *testing.T) {
	s := tunerSpace(t)
	r := hillClimb(s, quad, 500)
	if math.Abs(r.Values[0]-60) > 5 || math.Abs(r.Values[1]-3) > 1 {
		t.Fatalf("hill climb ended at %v, want ≈(60,3)", r.Values)
	}
	if r.Probes > 500 {
		t.Fatalf("probe budget exceeded: %d", r.Probes)
	}
	static := staticDefault(s, quad)
	if r.Score <= static.Score {
		t.Fatal("hill climb must beat the static default on a smooth bowl")
	}
}

func TestHillClimbRespectsBudget(t *testing.T) {
	s := tunerSpace(t)
	n := 0
	counting := func(v []float64) float64 { n++; return quad(v) }
	r := hillClimb(s, counting, 10)
	if n > 10 {
		t.Fatalf("probe count %d exceeds budget 10", n)
	}
	if r.Probes != n {
		t.Fatalf("reported probes %d, actual %d", r.Probes, n)
	}
}

func TestHillClimbStuckOnDeceptiveSurface(t *testing.T) {
	// A surface with a local optimum at the default: hill climbing must
	// terminate (not loop) and return the default.
	s := tunerSpace(t)
	deceptive := func(v []float64) float64 {
		if v[0] == 10 && v[1] == 5 {
			return 100
		}
		return 0
	}
	r := hillClimb(s, deceptive, 100)
	if r.Values[0] != 10 || r.Values[1] != 5 {
		t.Fatalf("should stay at the local optimum, got %v", r.Values)
	}
}

func TestRandomSearchImprovesWithBudget(t *testing.T) {
	s := tunerSpace(t)
	small := randomSearch(s, quad, 3, 1)
	large := randomSearch(s, quad, 200, 1)
	if large.Score < small.Score {
		t.Fatalf("more probes should not hurt: %v vs %v", large.Score, small.Score)
	}
	if large.Probes != 200 {
		t.Fatalf("probes = %d", large.Probes)
	}
	// Values must be on the step grid and in range.
	for i, tn := range s.Tunables {
		v := large.Values[i]
		if v < tn.Min || v > tn.Max {
			t.Fatalf("value %v outside range", v)
		}
		steps := (v - tn.Min) / tn.Step
		if math.Abs(steps-math.Round(steps)) > 1e-9 {
			t.Fatalf("value %v off the step grid", v)
		}
	}
}
