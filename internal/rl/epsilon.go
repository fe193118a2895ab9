// Package rl implements the deep Q-learning machinery of the CAPES DRL
// engine: Bellman-target training over replay minibatches, a soft-updated
// target network, and the annealed ε-greedy exploration policy with the
// workload-change bump described in §3.6.
package rl

import "fmt"

// EpsilonSchedule is the exploration policy of §3.6: ε anneals linearly
// from Initial (1.0) to Final (0.05) over AnnealTicks (the 2-hour initial
// exploration period in Table 1). When the Interface Daemon learns that a
// new workload started it calls Bump, which raises ε to BumpValue (0.2)
// and lets it anneal back down at the same linear rate.
type EpsilonSchedule struct {
	Initial     float64
	Final       float64
	AnnealTicks int64
	BumpValue   float64

	bumpTick int64 // tick at which the last bump occurred, -1 if none
	bumped   bool
}

// Validate checks the schedule parameters.
func (e *EpsilonSchedule) Validate() error {
	if e.Initial < e.Final {
		return fmt.Errorf("rl: epsilon initial %v < final %v", e.Initial, e.Final)
	}
	if e.Initial > 1 || e.Final < 0 {
		return fmt.Errorf("rl: epsilon range [%v,%v] outside [0,1]", e.Final, e.Initial)
	}
	if e.AnnealTicks <= 0 {
		return fmt.Errorf("rl: AnnealTicks %d must be positive", e.AnnealTicks)
	}
	return nil
}

// slope is the ε decrease per tick during annealing.
func (e *EpsilonSchedule) slope() float64 {
	return (e.Initial - e.Final) / float64(e.AnnealTicks)
}

// At returns ε at the given tick.
func (e *EpsilonSchedule) At(tick int64) float64 {
	base := e.Initial - e.slope()*float64(tick)
	if base < e.Final {
		base = e.Final
	}
	if e.bumped {
		b := e.BumpValue - e.slope()*float64(tick-e.bumpTick)
		if b > base {
			return b
		}
	}
	return base
}

// Bump raises ε to BumpValue at the given tick (no-op if the current ε is
// already higher, e.g. during the initial exploration period).
func (e *EpsilonSchedule) Bump(tick int64) {
	if e.At(tick) >= e.BumpValue {
		return
	}
	e.bumped = true
	e.bumpTick = tick
}
