package capes

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"capes/internal/replay"
)

func TestDefaultHyperparametersMatchTable1(t *testing.T) {
	h := DefaultHyperparameters()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.ActionTickLength != 1 || h.SamplingTickLength != 1 {
		t.Fatal("tick lengths must be 1 s")
	}
	if h.EpsilonInitial != 1.0 || h.EpsilonFinal != 0.05 || h.EpsilonBump != 0.2 {
		t.Fatal("epsilon schedule mismatch")
	}
	if h.DiscountRate != 0.99 {
		t.Fatal("gamma must be 0.99")
	}
	if h.ExplorationPeriod != 7200 {
		t.Fatal("exploration period must be 2 h")
	}
	if h.MinibatchSize != 32 {
		t.Fatal("minibatch must be 32")
	}
	if h.MissingTolerance != 0.20 {
		t.Fatal("missing tolerance must be 20%")
	}
	if h.NumHiddenLayers != 2 {
		t.Fatal("two hidden layers")
	}
	if h.AdamLearningRate != 0.0001 {
		t.Fatal("Adam LR must be 1e-4")
	}
	if h.TicksPerObservation != 10 {
		t.Fatal("10 ticks per observation")
	}
	if h.TargetUpdateRate != 0.01 {
		t.Fatal("target update rate must be 0.01")
	}
	if len(h.Table1()) != 12 {
		t.Fatalf("Table1 has %d rows, want 12", len(h.Table1()))
	}
}

func TestHyperparametersScaled(t *testing.T) {
	h := DefaultHyperparameters().Scaled(0.5)
	if h.ExplorationPeriod != 3600 {
		t.Fatalf("scaled exploration = %d", h.ExplorationPeriod)
	}
	if h.MinibatchSize != 32 || h.DiscountRate != 0.99 {
		t.Fatal("non-duration values must not scale")
	}
	tiny := DefaultHyperparameters().Scaled(1e-9)
	if tiny.ExplorationPeriod < 1 {
		t.Fatal("scaled exploration must stay >= 1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive scale")
		}
	}()
	DefaultHyperparameters().Scaled(0)
}

func TestHyperparametersValidate(t *testing.T) {
	mods := []func(*Hyperparameters){
		func(h *Hyperparameters) { h.ActionTickLength = 0 },
		func(h *Hyperparameters) { h.EpsilonInitial = 0.01 },
		func(h *Hyperparameters) { h.DiscountRate = 1 },
		func(h *Hyperparameters) { h.ExplorationPeriod = 0 },
		func(h *Hyperparameters) { h.MinibatchSize = 0 },
		func(h *Hyperparameters) { h.MissingTolerance = 1 },
		func(h *Hyperparameters) { h.NumHiddenLayers = 0 },
		func(h *Hyperparameters) { h.AdamLearningRate = 0 },
		func(h *Hyperparameters) { h.TicksPerObservation = 0 },
		func(h *Hyperparameters) { h.TargetUpdateRate = 0 },
		func(h *Hyperparameters) { h.TrainEvery = 0 },
	}
	for i, mod := range mods {
		h := DefaultHyperparameters()
		mod(&h)
		if err := h.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestTunableValidateAndClamp(t *testing.T) {
	good := Tunable{Name: "w", Min: 1, Max: 10, Step: 1, Default: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Tunable{
		{Min: 1, Max: 10, Step: 1, Default: 5},             // no name
		{Name: "w", Min: 10, Max: 1, Step: 1, Default: 5},  // inverted
		{Name: "w", Min: 1, Max: 10, Step: 0, Default: 5},  // zero step
		{Name: "w", Min: 1, Max: 10, Step: 1, Default: 50}, // default outside
	}
	for i, tn := range bad {
		if err := tn.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	if good.Clamp(0) != 1 || good.Clamp(99) != 10 || good.Clamp(7) != 7 {
		t.Fatal("Clamp wrong")
	}
}

func TestActionSpace(t *testing.T) {
	s, err := NewActionSpace(
		Tunable{Name: "a", Min: 0, Max: 100, Step: 10, Default: 50},
		Tunable{Name: "b", Min: 0, Max: 1, Step: 0.1, Default: 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	// 2 tunables → 5 actions (§3.7: 2k+1).
	if s.NumActions() != 5 {
		t.Fatalf("NumActions = %d", s.NumActions())
	}
	cur := s.Defaults()
	if cur[0] != 50 || cur[1] != 0.5 {
		t.Fatalf("Defaults = %v", cur)
	}
	// NULL leaves values unchanged.
	if got := s.Apply(nil, NullAction, cur); got[0] != 50 || got[1] != 0.5 {
		t.Fatalf("NULL changed values: %v", got)
	}
	// Action ids: 1=a−, 2=a+, 3=b−, 4=b+.
	if got := s.Apply(nil, s.DecreaseAction(0), cur); got[0] != 40 {
		t.Fatalf("a− = %v", got)
	}
	if got := s.Apply(nil, s.IncreaseAction(0), cur); got[0] != 60 {
		t.Fatalf("a+ = %v", got)
	}
	if got := s.Apply(nil, s.DecreaseAction(1), cur); math.Abs(got[1]-0.4) > 1e-12 {
		t.Fatalf("b− = %v", got)
	}
	if got := s.Apply(nil, s.IncreaseAction(1), cur); math.Abs(got[1]-0.6) > 1e-12 {
		t.Fatalf("b+ = %v", got)
	}
	// Apply must not mutate the input.
	if cur[0] != 50 {
		t.Fatal("Apply mutated current")
	}
	// A dst with room for every tunable is reused, not reallocated.
	buf := make([]float64, 2)
	if got := s.Apply(buf, s.IncreaseAction(0), cur); &got[0] != &buf[0] || got[0] != 60 {
		t.Fatalf("Apply into dst = %v, not written in place", got)
	}
	// Clamping at range edges.
	edge := []float64{100, 1}
	if got := s.Apply(nil, s.IncreaseAction(0), edge); got[0] != 100 {
		t.Fatalf("clamp high = %v", got)
	}
	edge = []float64{0, 0}
	if got := s.Apply(nil, s.DecreaseAction(0), edge); got[0] != 0 {
		t.Fatalf("clamp low = %v", got)
	}
	// Out-of-range action ids behave as NULL.
	if got := s.Apply(nil, 99, cur); got[0] != 50 {
		t.Fatalf("invalid action = %v", got)
	}
}

func TestActionSpaceValidation(t *testing.T) {
	if _, err := NewActionSpace(); err == nil {
		t.Fatal("empty space must fail")
	}
	dup := Tunable{Name: "x", Min: 0, Max: 1, Step: 0.1, Default: 0}
	if _, err := NewActionSpace(dup, dup); err == nil {
		t.Fatal("duplicate names must fail")
	}
	if _, err := NewActionSpace(Tunable{Name: "x", Min: 1, Max: 0, Step: 1, Default: 0}); err == nil {
		t.Fatal("invalid tunable must fail")
	}
}

func TestLustreTunables(t *testing.T) {
	ts := LustreTunables()
	if len(ts) != 2 {
		t.Fatalf("want 2 tunables, got %d", len(ts))
	}
	if ts[0].Name != "max_rpc_in_flight" || ts[0].Default != 8 {
		t.Fatalf("window tunable = %+v", ts[0])
	}
	if ts[1].Name != "io_rate_limit" {
		t.Fatalf("rate tunable = %+v", ts[1])
	}
	s, err := NewActionSpace(ts...)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumActions() != 5 {
		t.Fatal("Lustre space must have 5 actions")
	}
}

func TestObjectives(t *testing.T) {
	f := replay.Frame{1, 2, 3, 4, 5, 6}
	sum := SumIndices(0, 2, 4)
	if sum(f) != 9 {
		t.Fatalf("SumIndices = %v", sum(f))
	}
	// Out-of-range indices are ignored.
	if SumIndices(0, 99)(f) != 1 {
		t.Fatal("out-of-range index must be ignored")
	}
	// 2 clients × 3 PIs, throughput at offsets 1 and 2.
	tp := ThroughputObjective(2, 3, 1, 2)
	if tp(f) != 2+3+5+6 {
		t.Fatalf("ThroughputObjective = %v", tp(f))
	}
	w, err := WeightedObjective([]Objective{sum, tp}, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if w(f) != 9-16 {
		t.Fatalf("WeightedObjective = %v", w(f))
	}
	if _, err := WeightedObjective([]Objective{sum}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched weights must fail")
	}
	if _, err := WeightedObjective(nil, nil); err == nil {
		t.Fatal("empty must fail")
	}
}

func TestRewardModes(t *testing.T) {
	obj := SumIndices(0)
	cur, next := replay.Frame{10}, replay.Frame{15}
	if got := RewardFunc(obj, RewardDelta)(cur, next); got != 5 {
		t.Fatalf("delta reward = %v", got)
	}
	if got := RewardFunc(obj, RewardAbsolute)(cur, next); got != 15 {
		t.Fatalf("absolute reward = %v", got)
	}
}

func TestCheckers(t *testing.T) {
	if err := NoopChecker([]float64{1e9}); err != nil {
		t.Fatal("noop must accept everything")
	}
	ts := []Tunable{{Name: "w", Min: 1, Max: 10, Step: 1, Default: 5}}
	rc := RangeChecker(ts)
	if err := rc([]float64{5}); err != nil {
		t.Fatal(err)
	}
	if err := rc([]float64{0}); err == nil {
		t.Fatal("below range must be vetoed")
	}
	if err := rc([]float64{11}); err == nil {
		t.Fatal("above range must be vetoed")
	}
	if err := rc([]float64{1, 2}); err == nil {
		t.Fatal("wrong arity must be vetoed")
	}
	mc := MinimumChecker(0, 9)
	if err := mc([]float64{8}); err == nil {
		t.Fatal("below minimum must be vetoed")
	}
	if err := mc([]float64{9}); err != nil {
		t.Fatal("at minimum must pass")
	}
	if err := mc([]float64{}); err == nil {
		t.Fatal("bad index must error")
	}
	chain := ChainCheckers(rc, mc)
	if err := chain([]float64{9.5}); err != nil {
		t.Fatal(err)
	}
	if err := chain([]float64{5}); err == nil {
		t.Fatal("chain must apply the minimum checker")
	}
}

// Property: for any action sequence, Apply keeps every value on the
// step grid within [Min, Max].
func TestActionSpaceApplyInvariant(t *testing.T) {
	s, err := NewActionSpace(
		Tunable{Name: "w", Min: 1, Max: 256, Step: 8, Default: 8},
		Tunable{Name: "r", Min: 2000, Max: 20000, Step: 500, Default: 20000},
	)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cur := s.Defaults()
		for i := 0; i < 200; i++ {
			cur = s.Apply(nil, rng.Intn(s.NumActions()), cur)
			for j, tn := range s.Tunables {
				// Range containment is the hard invariant; the step grid
				// is not preserved across range-edge clamps by design
				// (clamping to Min then stepping up walks a shifted grid).
				if cur[j] < tn.Min || cur[j] > tn.Max {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: Scaled preserves everything except durations.
func TestScaledPreservesNonDurations(t *testing.T) {
	f := func(raw float64) bool {
		scale := math.Abs(math.Mod(raw, 2)) + 0.01
		h := DefaultHyperparameters()
		s := h.Scaled(scale)
		return s.MinibatchSize == h.MinibatchSize &&
			s.DiscountRate == h.DiscountRate &&
			s.AdamLearningRate == h.AdamLearningRate &&
			s.TargetUpdateRate == h.TargetUpdateRate &&
			s.ExplorationPeriod >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
