package capes

import (
	"math"
	"strings"
	"sync"
	"testing"

	"capes/internal/replay"
)

// newDivEngine builds a training+tuning engine whose collector is keyed
// off the tick counter it shares with drive() (tickFrame is the shared
// deterministic workload from engine_test.go).
func newDivEngine(t *testing.T, mutate func(*Config)) (*Engine, *int64) {
	t.Helper()
	cfg, _ := smallConfig(t, true, true)
	if mutate != nil {
		mutate(&cfg)
	}
	cur := new(int64)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return tickFrame(*cur), nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return eng, cur
}

func drive(eng *Engine, cur *int64, from, to int64) {
	for tick := from; tick <= to; tick++ {
		*cur = tick
		eng.Tick(tick)
	}
}

// TestDivergencePoisonTripsAndRollsBack is the tentpole acceptance
// test at the engine layer: a poisoned train step produces a NaN loss,
// the guard quarantines the engine (no actions, no training, collection
// continues), and a RestoreSession rollback resumes training
// step-exact — the train-step counter and epsilon schedule match a
// control engine restored from the same checkpoint and driven over the
// same post-rollback tick range, as if the excursion never happened.
func TestDivergencePoisonTripsAndRollsBack(t *testing.T) {
	dir := t.TempDir()
	eng, cur := newDivEngine(t, nil)
	defer eng.Stop()

	drive(eng, cur, 1, 60)
	savedSteps := eng.Stats().TrainSteps
	if savedSteps == 0 {
		t.Fatal("no training before checkpoint; test setup is wrong")
	}
	if err := eng.SaveSession(dir); err != nil {
		t.Fatal(err)
	}

	f := &FaultInjector{}
	eng.SetFaultInjector(f)
	f.PoisonTrainStep(savedSteps + 1)
	drive(eng, cur, 61, 80)

	reason, _, tripped := eng.Divergence()
	if !tripped {
		t.Fatal("poisoned train step did not trip the divergence guard")
	}
	if !strings.Contains(reason, "training fault") {
		t.Fatalf("trip reason = %q, want a training fault", reason)
	}
	if got := eng.DivergenceTrips(); got != 1 {
		t.Fatalf("divergence trips = %d, want 1 (first trip wins)", got)
	}
	st := eng.Stats()
	if !st.Diverged {
		t.Fatal("Stats().Diverged = false after trip")
	}
	if st.TrainSteps != savedSteps {
		t.Fatalf("train steps advanced to %d after trip (saved %d); quarantine must stop training",
			st.TrainSteps, savedSteps)
	}
	// Collection keeps running while quarantined.
	if got := eng.DB().Len(); got != 80 {
		t.Fatalf("replay records = %d while quarantined, want 80 (collection must continue)", got)
	}
	// No actions leave a quarantined engine.
	recordsBefore := len(eng.ActionHistory())
	drive(eng, cur, 81, 90)
	if got := len(eng.ActionHistory()); got != recordsBefore {
		t.Fatalf("quarantined engine applied %d new actions", got-recordsBefore)
	}

	// Rollback, then resume.
	if err := eng.RestoreSession(dir); err != nil {
		t.Fatal(err)
	}
	if _, _, tripped := eng.Divergence(); tripped {
		t.Fatal("restore did not clear the divergence trip")
	}
	if got := eng.DivergenceTrips(); got != 1 {
		t.Fatalf("restore reset the lifetime trip counter: %d", got)
	}
	drive(eng, cur, 91, 160)

	// Control: restore the same checkpoint into a fresh engine and run
	// the identical post-rollback tick range.
	ctrl, ctrlCur := newDivEngine(t, nil)
	defer ctrl.Stop()
	if err := ctrl.RestoreSession(dir); err != nil {
		t.Fatal(err)
	}
	drive(ctrl, ctrlCur, 91, 160)

	a, b := eng.Stats(), ctrl.Stats()
	if a.TrainSteps != b.TrainSteps {
		t.Fatalf("step-exact resume broken: rolled-back engine at %d train steps, control at %d",
			a.TrainSteps, b.TrainSteps)
	}
	if a.TrainSteps <= savedSteps {
		t.Fatalf("training did not resume after rollback: %d steps (checkpoint had %d)",
			a.TrainSteps, savedSteps)
	}
	if a.Epsilon != b.Epsilon {
		t.Fatalf("epsilon schedule diverged after rollback: %v vs control %v", a.Epsilon, b.Epsilon)
	}
	if ea, eb := eng.agent.Epsilon.At(161), ctrl.agent.Epsilon.At(161); ea != eb {
		t.Fatalf("epsilon schedule state diverged: At(161) = %v vs %v", ea, eb)
	}
}

// TestDivergenceProbeTripsOnNonFiniteParams covers the probe backstop:
// parameters that go non-finite without a training fault surfacing are
// caught by the periodic ProbeFinite scan.
func TestDivergenceProbeTripsOnNonFiniteParams(t *testing.T) {
	eng, cur := newDivEngine(t, func(c *Config) {
		c.Divergence = &DivergencePolicy{ProbeEverySteps: 1}
	})
	defer eng.Stop()
	drive(eng, cur, 1, 40)
	if eng.Stats().TrainSteps == 0 {
		t.Fatal("no training; test setup is wrong")
	}

	eng.mu.Lock()
	eng.agent.Online.FlatParams()[0] = EnginePrecision(math.Inf(1))
	eng.lastProbeStep = 0
	eng.maybeProbeLocked(eng.agent.Steps(), 40)
	eng.mu.Unlock()

	reason, _, tripped := eng.Divergence()
	if !tripped {
		t.Fatal("probe did not trip on Inf parameter")
	}
	if !strings.Contains(reason, "parameter probe") {
		t.Fatalf("trip reason = %q, want a parameter-probe trip", reason)
	}
}

// TestDivergenceLossExplosionTrips drives the windowed loss check
// directly: a healthy baseline in the history ring, then a loss EWMA
// beyond factor × window-min must trip.
func TestDivergenceLossExplosionTrips(t *testing.T) {
	eng, _ := newDivEngine(t, func(c *Config) {
		c.Divergence = &DivergencePolicy{LossExplodeFactor: 100, MinSteps: 10, MinPoints: 4}
	})
	defer eng.Stop()

	eng.mu.Lock()
	for i := 0; i < 6; i++ {
		eng.hist.Record(HistoryPoint{Tick: int64(10 + i), Loss: 0.5, TrainSteps: int64(20 + i)})
	}
	// Within factor: no trip.
	eng.checkDivergenceLocked(30, 40, 100)
	if eng.divGate {
		eng.mu.Unlock()
		t.Fatal("loss within the explosion factor tripped the guard")
	}
	// Beyond factor: trip.
	eng.checkDivergenceLocked(31, 51, 101)
	tripped := eng.divGate
	eng.mu.Unlock()
	if !tripped {
		t.Fatal("loss explosion beyond factor × window-min did not trip")
	}
	reason, tick, _ := eng.Divergence()
	if !strings.Contains(reason, "loss explosion") || tick != 101 {
		t.Fatalf("trip = (%q, %d), want a loss-explosion trip at tick 101", reason, tick)
	}
}

// TestDivergenceNonFiniteLossEWMATrips covers the belt-and-braces NaN
// check at the telemetry cadence.
func TestDivergenceNonFiniteLossEWMATrips(t *testing.T) {
	eng, _ := newDivEngine(t, nil)
	defer eng.Stop()
	eng.mu.Lock()
	eng.checkDivergenceLocked(100, math.NaN(), 50)
	tripped := eng.divGate
	eng.mu.Unlock()
	if !tripped {
		t.Fatal("NaN loss EWMA did not trip")
	}
}

// TestDivergenceRewardCollapseTrips exercises the opt-in objective
// collapse check: a reward EWMA falling below peak/factor trips.
func TestDivergenceRewardCollapseTrips(t *testing.T) {
	eng, _ := newDivEngine(t, func(c *Config) {
		c.Divergence = &DivergencePolicy{RewardCollapseFactor: 4, MinSteps: 1}
	})
	defer eng.Stop()

	eng.mu.Lock()
	eng.noteRewardLocked(100) // seed
	eng.checkDivergenceLocked(10, 0.1, 1)
	if eng.divGate {
		eng.mu.Unlock()
		t.Fatal("healthy reward tripped the collapse check")
	}
	// Collapse the EWMA well below peak/4.
	for i := 0; i < 200; i++ {
		eng.noteRewardLocked(0)
	}
	eng.checkDivergenceLocked(11, 0.1, 2)
	tripped := eng.divGate
	eng.mu.Unlock()
	if !tripped {
		t.Fatal("reward collapse did not trip")
	}
	reason, _, _ := eng.Divergence()
	if !strings.Contains(reason, "reward collapse") {
		t.Fatalf("trip reason = %q, want a reward-collapse trip", reason)
	}
}

// TestFaultInjectorPanicAtTick proves the injected panic surfaces out
// of Tick (the capesd supervisor converts it into a failed session).
func TestFaultInjectorPanicAtTick(t *testing.T) {
	eng, cur := newDivEngine(t, nil)
	defer eng.Stop()
	f := &FaultInjector{}
	eng.SetFaultInjector(f)
	f.PanicAtTick(5)
	drive(eng, cur, 1, 4)

	recovered := func() (r interface{}) {
		defer func() { r = recover() }()
		*cur = 5
		eng.Tick(5)
		return nil
	}()
	if recovered == nil {
		t.Fatal("armed PanicAtTick did not panic")
	}
	if !strings.Contains(recovered.(string), "injected panic at tick 5") {
		t.Fatalf("panic value = %v", recovered)
	}
	// One-shot: the next tick proceeds normally (Tick recovers the
	// engine lock because panic unwinds through the deferred unlock).
	drive(eng, cur, 6, 10)
	if got := eng.DB().Len(); got == 0 {
		t.Fatal("engine wedged after recovered panic")
	}
}

// TestFaultInjectorFreezeNextTick proves the freeze blocks Tick holding
// the engine lock (Divergence stays pollable) until released.
func TestFaultInjectorFreezeNextTick(t *testing.T) {
	eng, cur := newDivEngine(t, nil)
	defer eng.Stop()
	f := &FaultInjector{}
	eng.SetFaultInjector(f)
	drive(eng, cur, 1, 4)

	release := f.FreezeNextTick()
	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	go func() {
		defer wg.Done()
		close(started)
		*cur = 5
		eng.Tick(5)
	}()
	<-started
	// Divergence must not block on the wedged engine lock.
	if _, _, tripped := eng.Divergence(); tripped {
		t.Fatal("unexpected trip while frozen")
	}
	release()
	release() // idempotent
	wg.Wait()
	drive(eng, cur, 6, 8)
	if got := eng.DB().Len(); got != 8 {
		t.Fatalf("replay records = %d after release, want 8", got)
	}
}
