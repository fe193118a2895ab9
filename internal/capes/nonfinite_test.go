package capes

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"capes/internal/replay"
	"capes/internal/tensor"
)

// TestNonFinitePIKeepsLastValue: one NaN, +Inf, −Inf and out-of-float32
// reading (ticks 100–103, one PI each) neither trips the divergence
// guard nor reaches the replay ring — each PI keeps its last finite
// value and is counted — and a checkpoint taken after them restores and
// trains on. Before the repair, the NaN tripped the guard at the first
// train step that sampled it ("non-finite minibatch loss"), the tick-150
// checkpoint held it, and a restore tripped again on the same step.
func TestNonFinitePIKeepsLastValue(t *testing.T) {
	bad := map[int64]struct {
		pi int
		v  float64
	}{
		100: {0, math.NaN()},
		101: {1, math.Inf(1)},
		102: {2, math.Inf(-1)},
		103: {1, 1e300}, // finite, but +Inf in the float32 ring
	}
	frame := func(tick int64) replay.Frame {
		f := tickFrame(tick)
		if b, ok := bad[tick]; ok {
			f[b.pi] = b.v
		}
		return f
	}
	cfg, _ := smallConfig(t, true, true)
	tick := new(int64)
	eng, err := NewEngine(cfg, func() (replay.Frame, error) { return frame(*tick), nil }, func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	runTicks(eng, tick, 1, 150)

	st := eng.Stats()
	if st.Diverged || st.DivergenceTrips != 0 || st.TrainErrors != 0 {
		t.Fatalf("a non-finite PI tripped the guard: %+v", st)
	}
	if st.NonFinitePIs != int64(len(bad)) {
		t.Fatalf("NonFinitePIs = %d, want %d", st.NonFinitePIs, len(bad))
	}
	// The repaired frames carry the last finite value of each bad PI: PI 0
	// holds tick 99's at 100, PI 1 tick 100's at 101 (and tick 102's at
	// 103), PI 2 tick 101's at 102.
	want := map[int64][2]float64{100: {0, tickFrame(99)[0]}, 101: {1, tickFrame(100)[1]}, 102: {2, tickFrame(101)[2]}, 103: {1, tickFrame(102)[1]}}
	eng.DB().Range(func(t0 int64, f replay.Frame, _ int, _ bool) bool {
		if w, ok := want[t0]; ok {
			if got := f[int(w[0])]; got != float64(float32(w[1])) {
				t.Errorf("tick %d PI %d = %v, want the last finite value %v", t0, int(w[0]), got, w[1])
			}
			delete(want, t0)
		}
		return true
	})
	if len(want) != 0 {
		t.Fatalf("ticks %v missing from the ring", want)
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := eng.SaveSession(dir); err != nil {
		t.Fatal(err)
	}
	restored, rtick := checkpointEngine(t, nil)
	defer restored.Stop()
	if err := restored.RestoreSession(dir); err != nil {
		t.Fatalf("checkpoint taken after the bad readings: %v", err)
	}
	before := restored.Stats().TrainSteps
	runTicks(restored, rtick, 151, 300)
	if st := restored.Stats(); st.Diverged || st.TrainSteps <= before {
		t.Fatalf("restored engine: diverged %v (%s), %d → %d train steps", st.Diverged, st.DivergenceReason, before, st.TrainSteps)
	}
}

// TestNonFinitePIRepairAllocFree: a tick whose frame needs repairing
// allocates nothing, like every other tick.
func TestNonFinitePIRepairAllocFree(t *testing.T) {
	cfg, _ := smallConfig(t, false, false)
	cfg.Hyper.ReplayCapacity = 64
	frame := replay.Frame{1, 2, 3}
	eng, err := NewEngine(cfg, func() (replay.Frame, error) { return frame, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	var tick int64
	for tick = 1; tick <= 256; tick++ {
		eng.Tick(tick)
	}
	frame[1] = math.NaN()
	allocs := testing.AllocsPerRun(100, func() {
		tick++
		eng.Tick(tick)
	})
	if allocs != 0 {
		t.Fatalf("repairing tick allocates %.1f/op, want 0", allocs)
	}
	if got := eng.Stats().NonFinitePIs; got < 100 {
		t.Fatalf("NonFinitePIs = %d after 100+ NaN ticks", got)
	}
	if !math.IsNaN(frame[1]) {
		t.Fatal("the repair wrote into the collector's frame")
	}
}

// TestLoadCheckpointRefusesNonFiniteRing: a checkpoint whose replay ring
// holds a NaN (written past the engine's repair, through the DB escape
// hatch) is corrupt, not absent: LoadCheckpoint refuses it.
func TestLoadCheckpointRefusesNonFiniteRing(t *testing.T) {
	eng, tick := checkpointEngine(t, nil)
	defer eng.Stop()
	runTicks(eng, tick, 1, 60)
	if err := eng.DB().PutFrame(61, replay.Frame{0, math.NaN(), 0}); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := eng.SaveSession(dir); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(dir)
	if !errors.Is(err, tensor.ErrNonFinite) || errors.Is(err, ErrNoSession) {
		t.Fatalf("LoadCheckpoint of a ring holding a NaN: %v", err)
	}
}
