// Package capes is the core CAPES library: the deep-reinforcement-
// learning parameter tuner of the paper, assembled from the replay
// database (internal/replay), the deep Q-network (internal/nn) and the
// Q-learning agent (internal/rl). It is target-system agnostic — a
// deployment provides a Collector (reads performance indicators) and a
// Controller (applies parameter values), mirroring the adapter functions
// of the released artifact's conf.py (§A.3.3) — plus the list of
// Tunables with their valid ranges and step sizes (§3.7).
package capes

import (
	"fmt"
)

// Table 1 values the engine runs as fixed structure, not settings: every
// tick samples one frame and takes one action, and the Q-network has two
// hidden layers the width of its input (nn.NewCAPESNetwork).
const (
	actionTickLength   = 1 // one action per tick
	samplingTickLength = 1 // one sample per tick
	hiddenLayers       = 2
)

// Hyperparameters mirrors Table 1 of the paper. Durations are in ticks
// (1 tick = 1 simulated second), so the values match the paper's seconds
// and hours directly.
type Hyperparameters struct {
	EpsilonInitial      float64 // 1.0 — all actions random at start
	EpsilonFinal        float64 // 0.05
	EpsilonBump         float64 // 0.2 on workload change (§3.6)
	DiscountRate        float64 // γ = 0.99
	ExplorationPeriod   int64   // linear anneal duration (2 h = 7200 ticks)
	MinibatchSize       int     // 32
	MissingTolerance    float64 // 0.20 of an observation may be missing
	AdamLearningRate    float64 // 0.0001
	TicksPerObservation int     // 10 sampling ticks stacked per observation
	TargetUpdateRate    float64 // α = 0.01

	// TrainEvery runs one SGD step per this many ticks. The paper's DRL
	// engine trains continuously on a GPU; on one CPU core the virtual-
	// time harness makes training cadence explicit. 1 matches the paper.
	TrainEvery int64
	// TrainStartTicks delays training until the Replay DB has data.
	TrainStartTicks int64
	// ReplayCapacity bounds the Replay DB to the newest N frames
	// (0 = unbounded, as the paper's 70-hour SQLite DB effectively
	// was). One frame per tick, so it is also the ring's window in ticks.
	ReplayCapacity int
	// GradientClip bounds the global gradient norm (0 disables).
	GradientClip float64
}

// DefaultHyperparameters returns Table 1's values.
func DefaultHyperparameters() Hyperparameters {
	return Hyperparameters{
		EpsilonInitial:      1.0,
		EpsilonFinal:        0.05,
		EpsilonBump:         0.2,
		DiscountRate:        0.99,
		ExplorationPeriod:   7200, // 2 hours
		MinibatchSize:       32,
		MissingTolerance:    0.20,
		AdamLearningRate:    0.0001,
		TicksPerObservation: 10,
		TargetUpdateRate:    0.01,
		TrainEvery:          1,
		TrainStartTicks:     64,
		ReplayCapacity:      0,
		GradientClip:        10,
	}
}

// Scaled returns a copy with every duration hyperparameter multiplied by
// scale, preserving the schedule's shape when experiments run shortened
// sessions. Non-duration values are unchanged.
func (h Hyperparameters) Scaled(scale float64) Hyperparameters {
	if scale <= 0 {
		panic(fmt.Sprintf("capes: non-positive scale %v", scale))
	}
	s := h
	s.ExplorationPeriod = int64(float64(h.ExplorationPeriod) * scale)
	if s.ExplorationPeriod < 1 {
		s.ExplorationPeriod = 1
	}
	return s
}

// Validate checks the hyperparameters.
func (h Hyperparameters) Validate() error {
	if h.EpsilonInitial < h.EpsilonFinal || h.EpsilonInitial > 1 || h.EpsilonFinal < 0 {
		return fmt.Errorf("capes: invalid epsilon range [%v,%v]", h.EpsilonFinal, h.EpsilonInitial)
	}
	if h.DiscountRate < 0 || h.DiscountRate >= 1 {
		return fmt.Errorf("capes: discount rate %v outside [0,1)", h.DiscountRate)
	}
	if h.ExplorationPeriod <= 0 {
		return fmt.Errorf("capes: exploration period must be positive")
	}
	if h.MinibatchSize <= 0 {
		return fmt.Errorf("capes: minibatch size must be positive")
	}
	if h.MissingTolerance < 0 || h.MissingTolerance >= 1 {
		return fmt.Errorf("capes: missing tolerance %v outside [0,1)", h.MissingTolerance)
	}
	if h.AdamLearningRate <= 0 {
		return fmt.Errorf("capes: learning rate must be positive")
	}
	if h.TicksPerObservation <= 0 {
		return fmt.Errorf("capes: ticks per observation must be positive")
	}
	if h.TargetUpdateRate <= 0 || h.TargetUpdateRate > 1 {
		return fmt.Errorf("capes: target update rate %v outside (0,1]", h.TargetUpdateRate)
	}
	if h.TrainEvery <= 0 {
		return fmt.Errorf("capes: TrainEvery must be positive")
	}
	return nil
}

// Table1 renders the hyperparameters, and the fixed tick lengths and
// layer count, as the rows of Table 1 for the bench harness.
func (h Hyperparameters) Table1() [][2]string {
	return [][2]string{
		{"action tick length", fmt.Sprintf("%d", actionTickLength)},
		{"epsilon initial value", fmt.Sprintf("%g", h.EpsilonInitial)},
		{"epsilon final value", fmt.Sprintf("%g", h.EpsilonFinal)},
		{"discount rate (gamma)", fmt.Sprintf("%g", h.DiscountRate)},
		{"initial exploration period", fmt.Sprintf("%d ticks", h.ExplorationPeriod)},
		{"minibatch size", fmt.Sprintf("%d", h.MinibatchSize)},
		{"missing entry tolerance", fmt.Sprintf("%g%%", h.MissingTolerance*100)},
		{"number of hidden layers", fmt.Sprintf("%d", hiddenLayers)},
		{"Adam learning rate", fmt.Sprintf("%g", h.AdamLearningRate)},
		{"sampling tick length", fmt.Sprintf("%d", samplingTickLength)},
		{"sampling ticks per observation", fmt.Sprintf("%d", h.TicksPerObservation)},
		{"target network update rate (alpha)", fmt.Sprintf("%g", h.TargetUpdateRate)},
	}
}
