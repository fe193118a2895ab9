package capes

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"capes/internal/replay"
)

// benchEngine builds the benchmark engine at the deployed shape: 64 PIs
// per sampling tick, 4 ticks per observation (the obs256 network of the
// internal/rl benchmarks), training every tick — the worst case for
// tick latency.
func benchEngine(b *testing.B) (*Engine, *int64) {
	b.Helper()
	space, err := NewActionSpace(
		Tunable{Name: "mrif", Min: 1, Max: 256, Step: 8, Default: 8},
		Tunable{Name: "rate", Min: 0, Max: 1000, Step: 50, Default: 500},
	)
	if err != nil {
		b.Fatal(err)
	}
	h := DefaultHyperparameters()
	h.TicksPerObservation = 4
	h.TrainStartTicks = 64
	h.ReplayCapacity = 4096
	cfg := Config{
		Hyper:      h,
		Space:      space,
		Objective:  SumIndices(0, 1, 2, 3),
		RewardMode: RewardDelta,
		FrameWidth: 64,
		Seed:       1,
		Training:   true,
		Tuning:     true,
	}
	frame := make(replay.Frame, cfg.FrameWidth)
	tick := new(int64)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) {
			// A cheap tick-varying frame: rotate a bump through the PIs.
			frame[*tick%int64(len(frame))] = float64(*tick % 7)
			return frame, nil
		},
		func([]float64) error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	// Warm past the training start and the ring's growth phase so the
	// measured window is pure steady state.
	for *tick = 1; *tick <= 256; *tick++ {
		eng.Tick(*tick)
	}
	return eng, tick
}

// BenchmarkEngineTick measures one full engine tick — sample, act,
// train. The sub-benchmark keeps its "serial/obs256" name so the gated
// baseline rows keep matching.
func BenchmarkEngineTick(b *testing.B) {
	b.Run("serial/obs256", func(b *testing.B) {
		eng, tick := benchEngine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			*tick++
			eng.Tick(*tick)
		}
		b.StopTimer()
		eng.Stop()
		if st := eng.Stats(); st.TrainSteps == 0 || st.TrainErrors != 0 {
			b.Fatalf("benchmark never reached steady training: %+v", st)
		}
	})
}

// checkpointConfig is the engine of the repo benchmark's
// checkpoint-cycle workload: 5 nodes × 10 PIs, 10 ticks per observation
// (the 500-500-500-5 float32 network) and a 32 768-tick ring.
func checkpointConfig(b *testing.B) Config {
	b.Helper()
	space, err := NewActionSpace(LustreTunables()...)
	if err != nil {
		b.Fatal(err)
	}
	h := DefaultHyperparameters()
	h.TicksPerObservation = 10
	h.ReplayCapacity = 32768
	return Config{
		Hyper:      h,
		Space:      space,
		Objective:  ThroughputObjective(5, 10, 2, 3),
		RewardMode: RewardDelta,
		FrameWidth: 50,
		Seed:       1,
		Training:   true,
		Tuning:     true,
	}
}

// BenchmarkSessionCheckpoint times SaveSession and RestoreSession
// through real files, at the checkpoint-cycle shape with the ring full:
// a frame and an action on every one of its 32 768 ticks. boot times
// BootEngine, the path capesd boots a session by.
func BenchmarkSessionCheckpoint(b *testing.B) {
	cfg := checkpointConfig(b)
	noFrame := func() (replay.Frame, error) { return nil, errors.New("bench: no collector") }
	noop := func([]float64) error { return nil }
	eng, err := NewEngine(cfg, noFrame, noop)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()
	rng := rand.New(rand.NewSource(1))
	f := make(replay.Frame, cfg.FrameWidth)
	for t := int64(1); t <= int64(cfg.Hyper.ReplayCapacity); t++ {
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		if err := eng.DB().PutFrame(t, f); err != nil {
			b.Fatal(err)
		}
		eng.DB().PutAction(t, rng.Intn(cfg.Space.NumActions()))
	}
	dir := filepath.Join(b.TempDir(), "session")
	if err := eng.SaveSession(dir); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := eng.SaveSession(dir); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		fresh, err := NewEngine(cfg, noFrame, noop)
		if err != nil {
			b.Fatal(err)
		}
		defer fresh.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fresh.RestoreSession(dir); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("boot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			booted, restored, err := BootEngine(cfg, noFrame, noop, dir)
			if err != nil || !restored {
				b.Fatalf("boot: restored %v, %v", restored, err)
			}
			booted.Stop()
		}
	})
}
