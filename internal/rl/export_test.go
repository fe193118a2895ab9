package rl

// Config returns the agent's hyperparameters.
func (a *Agent[E]) Config() Config { return a.cfg }

// DefaultConfig returns Table 1's values.
func DefaultConfig() Config {
	return Config{
		Gamma:         0.99,
		LearningRate:  1e-4,
		TargetUpdateα: 0.01,
		MinibatchSize: 32,
		GradientClip:  10,
	}
}

// NewEpsilonSchedule returns the paper's schedule: 1.0 → 0.05 over
// annealTicks, bump value 0.2.
func NewEpsilonSchedule(annealTicks int64) *EpsilonSchedule {
	return &EpsilonSchedule{
		Initial:     1.0,
		Final:       0.05,
		AnnealTicks: annealTicks,
		BumpValue:   0.2,
	}
}
