package capes

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"capes/internal/replay"
)

// tickFrame is the deterministic synthetic workload the engine tests
// feed both engines of a comparison: a pure function of the tick, so
// two engines given the same seed see byte-identical inputs.
func tickFrame(tick int64) replay.Frame {
	v := float64(tick%97) / 97
	return replay.Frame{math.Sin(v * 6), v, float64(tick % 5)}
}

// smallConfig builds a fast engine configuration for unit tests: a tiny
// observation window so training steps cost microseconds.
func smallConfig(t *testing.T, tuning, training bool) (Config, *ActionSpace) {
	t.Helper()
	space, err := NewActionSpace(Tunable{Name: "p", Min: 0, Max: 100, Step: 5, Default: 50})
	if err != nil {
		t.Fatal(err)
	}
	h := DefaultHyperparameters()
	h.TicksPerObservation = 2
	h.MinibatchSize = 8
	h.ExplorationPeriod = 100
	h.TrainStartTicks = 16
	return Config{
		Hyper:      h,
		Space:      space,
		Objective:  SumIndices(0),
		RewardMode: RewardDelta,
		FrameWidth: 3,
		Seed:       1,
		Training:   training,
		Tuning:     tuning,
	}, space
}

func TestNewEngineValidation(t *testing.T) {
	cfg, _ := smallConfig(t, true, true)
	collector := func() (replay.Frame, error) { return replay.Frame{0, 0, 0}, nil }
	controller := func([]float64) error { return nil }

	if _, err := NewEngine(cfg, nil, controller); err == nil {
		t.Fatal("nil collector must fail")
	}
	if _, err := NewEngine(cfg, collector, nil); err == nil {
		t.Fatal("nil controller with tuning must fail")
	}
	cfgNoTune := cfg
	cfgNoTune.Tuning = false
	if _, err := NewEngine(cfgNoTune, collector, nil); err != nil {
		t.Fatalf("monitor-only engine must not need a controller: %v", err)
	}
	cfgBad := cfg
	cfgBad.Space = nil
	if _, err := NewEngine(cfgBad, collector, controller); err == nil {
		t.Fatal("nil space must fail")
	}
	cfgBad2 := cfg
	cfgBad2.Objective = nil
	if _, err := NewEngine(cfgBad2, collector, controller); err == nil {
		t.Fatal("nil objective must fail")
	}
	cfgBad3 := cfg
	cfgBad3.FrameWidth = 0
	if _, err := NewEngine(cfgBad3, collector, controller); err == nil {
		t.Fatal("zero frame width must fail")
	}
	cfgBad4 := cfg
	cfgBad4.Hyper.MinibatchSize = 0
	if _, err := NewEngine(cfgBad4, collector, controller); err == nil {
		t.Fatal("invalid hyperparameters must fail")
	}
}

func TestEngineRecordsFramesAndActions(t *testing.T) {
	cfg, _ := smallConfig(t, true, false)
	var applied [][]float64
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func(v []float64) error {
			applied = append(applied, append([]float64(nil), v...))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 50; tick++ {
		eng.Tick(tick)
	}
	if eng.DB().Len() != 50 {
		t.Fatalf("replay records = %d", eng.DB().Len())
	}
	// Every tick records an action (possibly NULL).
	for tick := int64(1); tick <= 50; tick++ {
		if _, ok := eng.DB().ActionAt(tick); !ok {
			t.Fatalf("no action recorded at tick %d", tick)
		}
	}
	// During ε=1 exploration, non-NULL actions must have been applied.
	if len(applied) == 0 {
		t.Fatal("controller never invoked during exploration")
	}
	for _, v := range applied {
		if v[0] < 0 || v[0] > 100 {
			t.Fatalf("applied out-of-range value %v", v)
		}
	}
}

func TestEngineCollectorErrorsCounted(t *testing.T) {
	cfg, _ := smallConfig(t, false, false)
	n := 0
	eng, err := NewEngine(cfg, func() (replay.Frame, error) {
		n++
		if n%2 == 0 {
			return nil, errors.New("sample lost")
		}
		return replay.Frame{1, 2, 3}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 20; tick++ {
		eng.Tick(tick)
	}
	st := eng.Stats()
	if st.MissedSamples != 10 {
		t.Fatalf("MissedSamples = %d", st.MissedSamples)
	}
	if eng.DB().Len() != 10 {
		t.Fatalf("replay records = %d", eng.DB().Len())
	}
}

func TestEngineWrongFrameWidthCounted(t *testing.T) {
	cfg, _ := smallConfig(t, false, false)
	eng, err := NewEngine(cfg, func() (replay.Frame, error) {
		return replay.Frame{1}, nil // wrong width
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Tick(1)
	if eng.Stats().MissedSamples != 1 {
		t.Fatal("bad frame must count as missed sample")
	}
}

func TestEngineTrainingRecordsLossHistory(t *testing.T) {
	cfg, _ := smallConfig(t, true, true)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 300; tick++ {
		eng.Tick(tick)
	}
	st := eng.Stats()
	if st.TrainSteps == 0 {
		t.Fatal("no training steps executed")
	}
	// Figure 5's loss curve is the telemetry ring's points with
	// TrainSteps > 0.
	var trained int
	for _, p := range eng.History() {
		if p.TrainSteps > 0 {
			trained++
			if math.IsNaN(p.Loss) || math.IsInf(p.Loss, 0) {
				t.Fatalf("non-finite loss %v at tick %d", p.Loss, p.Tick)
			}
		}
	}
	if trained == 0 {
		t.Fatal("no trained telemetry sample recorded")
	}
	if st.TrainErrors != 0 {
		t.Fatalf("training errors: %d", st.TrainErrors)
	}
}

func TestEngineCheckerVeto(t *testing.T) {
	cfg, space := smallConfig(t, true, false)
	// Veto everything that isn't exactly the default.
	cfg.Checker = func(v []float64) error {
		if v[0] != 50 {
			return fmt.Errorf("vetoed")
		}
		return nil
	}
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func(v []float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 100; tick++ {
		eng.Tick(tick)
	}
	if got := eng.CurrentValues()[0]; got != 50 {
		t.Fatalf("vetoed engine moved the parameter to %v", got)
	}
	if eng.Stats().Vetoes == 0 {
		t.Fatal("no vetoes counted under an always-veto checker")
	}
	// Every recorded action must be NULL.
	for tick := int64(1); tick <= 100; tick++ {
		if a, ok := eng.DB().ActionAt(tick); ok && a != NullAction {
			t.Fatalf("non-NULL action %d recorded at %d despite veto", a, tick)
		}
	}
	_ = space
}

func TestEngineControllerFailureKeepsState(t *testing.T) {
	cfg, _ := smallConfig(t, true, false)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func(v []float64) error { return errors.New("target unreachable") })
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 50; tick++ {
		eng.Tick(tick)
	}
	if got := eng.CurrentValues()[0]; got != 50 {
		t.Fatalf("engine state drifted to %v though controller always failed", got)
	}
}

func TestEngineTogglesAndSetValues(t *testing.T) {
	cfg, _ := smallConfig(t, false, false)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 30; tick++ {
		eng.Tick(tick)
	}
	if st := eng.Stats(); st.TrainSteps != 0 {
		t.Fatal("training ran while disabled")
	}
	if _, ok := eng.DB().ActionAt(5); ok {
		t.Fatal("actions recorded while tuning disabled")
	}
	eng.SetTraining(true)
	eng.SetTuning(true)
	for tick := int64(31); tick <= 60; tick++ {
		eng.Tick(tick)
	}
	if st := eng.Stats(); st.TrainSteps == 0 {
		t.Fatal("training did not start after enable")
	}
	if err := eng.SetCurrentValues([]float64{10}); err != nil {
		t.Fatal(err)
	}
	if eng.CurrentValues()[0] != 10 {
		t.Fatal("SetCurrentValues ignored")
	}
	if err := eng.SetCurrentValues([]float64{1, 2}); err == nil {
		t.Fatal("wrong arity must error")
	}
}

func TestEngineExploitModeIsDeterministicallyGreedy(t *testing.T) {
	cfg, _ := smallConfig(t, true, false)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// Warm the DB so observations are available.
	for tick := int64(1); tick <= 20; tick++ {
		eng.Tick(tick)
	}
	eng.SetExploit(true)
	// With a frozen network and identical frames, the greedy action must
	// be identical every tick.
	first := -1
	for tick := int64(21); tick <= 40; tick++ {
		eng.Tick(tick)
		a, _ := eng.DB().ActionAt(tick)
		if first == -1 {
			first = a
		} else if a != first && a != NullAction {
			// (NULL can appear if clamping vetoes; same id otherwise.)
			t.Fatalf("exploit mode action changed: %d then %d", first, a)
		}
	}
}

func TestEngineWorkloadChangeBumpsEpsilon(t *testing.T) {
	cfg, _ := smallConfig(t, true, false)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// Run past the anneal so ε is at its final value.
	for tick := int64(1); tick <= 200; tick++ {
		eng.Tick(tick)
	}
	if got := eng.Agent().Epsilon.At(200); got != 0.05 {
		t.Fatalf("ε before bump = %v", got)
	}
	eng.NotifyWorkloadChange(200)
	if got := eng.Agent().Epsilon.At(200); got != 0.2 {
		t.Fatalf("ε after bump = %v", got)
	}
}

// TestSessionRestoreRehomesReplay: the engine's current retention
// configuration is authoritative over the snapshot's — restoring into
// an engine with a different (or differently-scaled) ReplayCapacity
// re-homes the records into a correctly-sized ring instead of adopting
// the snapshot's window verbatim.
func TestSessionRestoreRehomesReplay(t *testing.T) {
	cfg, _ := smallConfig(t, true, true)
	collector := func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil }
	controller := func([]float64) error { return nil }
	eng, err := NewEngine(cfg, collector, controller) // unbounded replay
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 120; tick++ {
		eng.Tick(tick)
	}
	dir := t.TempDir()
	if err := eng.SaveSession(dir); err != nil {
		t.Fatal(err)
	}

	cfg2, _ := smallConfig(t, true, true)
	cfg2.Hyper.ReplayCapacity = 40
	eng2, err := NewEngine(cfg2, collector, controller)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.RestoreSession(dir); err != nil {
		t.Fatal(err)
	}
	got := eng2.DB().Config()
	if got.Capacity != 40 {
		t.Fatalf("restored replay capacity %d, engine configured 40", got.Capacity)
	}
	if n := eng2.DB().Len(); n != 40 {
		t.Fatalf("restored replay holds %d frames, want the newest 40", n)
	}
	mn, mx := eng2.DB().Bounds()
	if mx != 120 || mn != 81 {
		t.Fatalf("restored window (%d,%d), want (81,120)", mn, mx)
	}
	// The newest frames and actions survived the re-home intact.
	f, ok := eng2.DB().FrameAt(120)
	if !ok || f[2] != 3 {
		t.Fatalf("FrameAt(120) = %v,%v", f, ok)
	}
}

func TestSessionSaveRestore(t *testing.T) {
	cfg, _ := smallConfig(t, true, true)
	collector := func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil }
	controller := func([]float64) error { return nil }
	eng, err := NewEngine(cfg, collector, controller)
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 120; tick++ {
		eng.Tick(tick)
	}
	dir := t.TempDir()
	if err := eng.SaveSession(dir); err != nil {
		t.Fatal(err)
	}

	eng2, err := NewEngine(cfg, collector, controller)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.RestoreSession(dir); err != nil {
		t.Fatal(err)
	}
	// Model weights restored: identical Q-values on a fixed observation.
	obs := make([]EnginePrecision, eng.DB().ObservationWidth())
	q1 := eng.agent.Online.ForwardVecInto(make([]EnginePrecision, eng.agent.Online.OutputSize()), obs)
	q2 := eng2.agent.Online.ForwardVecInto(make([]EnginePrecision, eng.agent.Online.OutputSize()), obs)
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatalf("Q[%d] differs after restore: %v vs %v", i, q1[i], q2[i])
		}
	}
	// Replay DB restored.
	if eng2.DB().Len() != eng.DB().Len() {
		t.Fatalf("replay len %d vs %d", eng2.DB().Len(), eng.DB().Len())
	}
	// Current values restored.
	if eng2.CurrentValues()[0] != eng.CurrentValues()[0] {
		t.Fatal("current values not restored")
	}
}

func TestSessionRestoreRejectsMismatchedShape(t *testing.T) {
	cfg, _ := smallConfig(t, true, true)
	collector := func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil }
	controller := func([]float64) error { return nil }
	eng, err := NewEngine(cfg, collector, controller)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := eng.SaveSession(dir); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.FrameWidth = 4
	eng2, err := NewEngine(cfg2, func() (replay.Frame, error) { return replay.Frame{1, 2, 3, 4}, nil }, controller)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.RestoreSession(dir); err == nil {
		t.Fatal("mismatched frame width must fail restore")
	}
	// The same through the two steps: a refused Restore leaves the
	// checkpoint whole for an engine it fits, and a restored checkpoint
	// belongs to that engine.
	cp, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(cp); err == nil {
		t.Fatal("mismatched frame width must fail Restore")
	}
	eng3, err := NewEngine(cfg, collector, controller)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng3.Restore(cp); err != nil {
		t.Fatalf("Restore after a refused one: %v", err)
	}
	if err := eng3.Restore(cp); err == nil {
		t.Fatal("a checkpoint restored twice")
	}
}

func TestSessionRestoreMissingDir(t *testing.T) {
	cfg, _ := smallConfig(t, true, true)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	err = eng.RestoreSession("/nonexistent/dir")
	if err == nil {
		t.Fatal("missing session dir must fail")
	}
	// A missing checkpoint is the distinguishable "first boot" case —
	// callers must be able to proceed quietly on it and fail loudly on
	// anything else (e.g. the mismatched-shape error above).
	if !errors.Is(err, ErrNoSession) {
		t.Fatalf("missing dir error %v does not wrap ErrNoSession", err)
	}
}

func TestSessionRestoreCorruptManifestIsNotErrNoSession(t *testing.T) {
	cfg, _ := smallConfig(t, true, true)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "session.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = eng.RestoreSession(dir)
	if err == nil {
		t.Fatal("corrupt manifest must fail")
	}
	if errors.Is(err, ErrNoSession) {
		t.Fatal("corrupt manifest must not be reported as ErrNoSession")
	}
}

func TestEngineStopDrainsTicks(t *testing.T) {
	cfg, _ := smallConfig(t, true, true)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 50; tick++ {
		eng.Tick(tick)
	}
	before := eng.Stats()
	eng.Stop()
	if !eng.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	for tick := int64(51); tick <= 100; tick++ {
		eng.Tick(tick)
	}
	after := eng.Stats()
	if after.ReplayRecords != before.ReplayRecords || after.TrainSteps != before.TrainSteps {
		t.Fatalf("stopped engine advanced: %+v -> %+v", before, after)
	}
	eng.Stop() // idempotent
}

func TestEngineActionHookSeesAppliedActions(t *testing.T) {
	cfg, _ := smallConfig(t, true, false)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	type hookCall struct {
		tick   int64
		action int
		values []float64
	}
	var calls []hookCall
	eng.SetActionHook(func(tick int64, action int, values []float64) {
		calls = append(calls, hookCall{tick, action, append([]float64(nil), values...)})
	})
	for tick := int64(1); tick <= 200; tick++ {
		eng.Tick(tick)
	}
	if len(calls) == 0 {
		t.Fatal("hook never fired over 200 ε-greedy ticks")
	}
	for _, c := range calls {
		if c.action == NullAction {
			t.Fatal("hook fired for the NULL action")
		}
		if len(c.values) != 1 {
			t.Fatalf("hook values = %v", c.values)
		}
	}
	// The hook's last call matches the engine's applied state.
	last := calls[len(calls)-1]
	if got := eng.ActionHistory(); got[len(got)-1].Tick != last.tick {
		t.Fatalf("hook tick %d != history tick %d", last.tick, got[len(got)-1].Tick)
	}
	eng.SetActionHook(nil) // removable
	n := len(calls)
	for tick := int64(201); tick <= 260; tick++ {
		eng.Tick(tick)
	}
	if len(calls) != n {
		t.Fatal("hook fired after removal")
	}
}

// TestEngineConcurrentStatsAndCheckpoint is the session-manager
// contract: readers, checkpoints and mode toggles may race agent-driven
// ticks. Run with -race to make it meaningful.
func TestEngineConcurrentStatsAndCheckpoint(t *testing.T) {
	cfg, _ := smallConfig(t, true, true)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for tick := int64(1); tick <= 400; tick++ {
			eng.Tick(tick)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			eng.Stats()
			eng.CurrentValues()
			eng.ActionHistory()
			eng.History()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := eng.SaveSession(dir); err != nil {
				t.Errorf("concurrent SaveSession: %v", err)
				return
			}
		}
	}()
	done := make(chan struct{})
	var toggler sync.WaitGroup
	toggler.Add(1)
	go func() { // mode toggles, paced so they contend without starving the ticks
		defer toggler.Done()
		on := true
		for {
			eng.SetExploit(on)
			eng.NotifyWorkloadChange(200) // fixed tick: the loop counter belongs to the ticker
			on = !on
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	wg.Wait()
	close(done)
	toggler.Wait()
	if st := eng.Stats(); st.TrainSteps == 0 || st.TrainErrors != 0 {
		t.Fatalf("engine ended unhealthy: %+v", st)
	}
	if err := eng.SaveSession(dir); err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.RestoreSession(dir); err != nil {
		t.Fatalf("checkpoint taken under concurrency does not restore: %v", err)
	}
}

func TestEngineActionHistoryAndDistribution(t *testing.T) {
	cfg, space := smallConfig(t, true, false)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 400; tick++ {
		eng.Tick(tick)
	}
	dist := eng.ActionDistribution()
	if len(dist) != space.NumActions() {
		t.Fatalf("distribution len = %d", len(dist))
	}
	var total int64
	for _, c := range dist {
		total += c
	}
	if total != 400 {
		t.Fatalf("distribution total = %d", total)
	}
	hist := eng.ActionHistory()
	if len(hist) == 0 {
		t.Fatal("no action history under exploration")
	}
	if len(hist) > 256 {
		t.Fatalf("history exceeded cap: %d", len(hist))
	}
	// History entries are ordered by tick and carry the applied values.
	for i := 1; i < len(hist); i++ {
		if hist[i].Tick <= hist[i-1].Tick {
			t.Fatal("history not ordered")
		}
	}
	for _, h := range hist {
		if h.Action == NullAction {
			t.Fatal("NULL actions must not enter the history")
		}
		if len(h.Values) != 1 {
			t.Fatalf("history values = %v", h.Values)
		}
	}
}

func TestEngineHistoryRingBound(t *testing.T) {
	cfg, _ := smallConfig(t, true, false)
	cfg.Hyper.EpsilonFinal = 1.0 // keep every action random so non-NULL actions keep flowing
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 2000; tick++ {
		eng.Tick(tick)
	}
	hist := eng.ActionHistory()
	if len(hist) != 256 {
		t.Fatalf("ring size = %d, want 256", len(hist))
	}
	// The retained window is the most recent one.
	if hist[len(hist)-1].Tick < 1500 {
		t.Fatalf("history stale: last tick %d", hist[len(hist)-1].Tick)
	}
}
