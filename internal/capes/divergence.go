package capes

import (
	"errors"
	"fmt"
	"math"

	"capes/internal/tensor"
)

// The divergence guard: PR 3's per-step NaN-loss check promoted to a
// session-level policy. A DQN can go wrong in ways a single minibatch
// never shows — parameters drifting to ±Inf between the periodic scans,
// a loss EWMA exploding over minutes, the tuned objective collapsing
// under a policy that learned the wrong thing — and on a production
// storage cluster each of those must quarantine the session (stop
// training AND stop issuing actions) rather than keep turning knobs.
//
// The guard trips on any of:
//
//   - a training fault wrapping tensor.ErrNonFinite (NaN/Inf minibatch
//     loss from ComputeGradients, or the periodic parameter scan inside
//     ApplyGradients);
//   - a NaN/Inf parameter found by the explicit probe (ProbeEverySteps),
//     which runs only while the trainer is idle;
//   - the loss EWMA exceeding LossExplodeFactor × the minimum loss seen
//     over the retained telemetry window (the PR 7 history ring);
//   - the reward EWMA collapsing below peak/RewardCollapseFactor after
//     training has settled (opt-in: many objectives are legitimately
//     noisy, so the factor defaults to off).
//
// Once tripped the engine keeps collecting frames (the monitoring half
// of §3.3 stays useful for diagnosis) but skips the action and training
// branches until a restore (the supervisor's rollback path) clears it,
// so a restored engine resumes clean.
type DivergencePolicy struct {
	// LossExplodeFactor trips when the smoothed loss exceeds this
	// multiple of the window-minimum loss. 0 = default (1e4); negative
	// disables the window check.
	LossExplodeFactor float64
	// MinSteps arms the window and collapse checks only after this many
	// train steps (0 = default 64) — cold-start losses swing wildly.
	MinSteps int64
	// MinPoints is the minimum number of trained telemetry samples the
	// window must hold before the loss check arms (0 = default 8).
	MinPoints int
	// RewardCollapseFactor trips when the reward EWMA falls below
	// peak/factor while training is active. Only meaningful for
	// positive-scale objectives; <= 1 (the default) disables it.
	RewardCollapseFactor float64
	// ProbeEverySteps runs rl.Agent.ProbeFinite every N train steps
	// (0 = default 256; negative disables). The probe is the backstop
	// for divergence paths that never produce a non-finite loss.
	ProbeEverySteps int64
}

// withDefaults resolves the zero values.
func (p DivergencePolicy) withDefaults() DivergencePolicy {
	if p.LossExplodeFactor == 0 {
		p.LossExplodeFactor = 1e4
	}
	if p.MinSteps == 0 {
		p.MinSteps = 64
	}
	if p.MinPoints == 0 {
		p.MinPoints = 8
	}
	if p.ProbeEverySteps == 0 {
		p.ProbeEverySteps = 256
	}
	return p
}

// Divergence reports the guard's trip state: the reason and tick of the
// first un-cleared trip. It takes only the small divergence mutex —
// never the engine lock — so supervisors can poll it while a tick is
// wedged or a checkpoint is in flight.
func (e *Engine) Divergence() (reason string, tick int64, tripped bool) {
	e.divMu.Lock()
	defer e.divMu.Unlock()
	return e.divReason, e.divTick, e.divTripped
}

// divergedLocked is the tick path's gate; e.mu held. Reading the flag
// under divMu on every tick would serialize two mutexes on the hot
// path, so the tick path reads a plain bool mirror maintained under
// e.mu (trips and clears both happen with e.mu held).
func (e *Engine) divergedLocked() bool { return e.divGate }

// tripDivergenceLocked records a trip; e.mu held. First trip wins —
// follow-on symptoms of the same excursion (a NaN loss usually implies
// NaN params too) must not inflate the counter the supervisor's
// accounting invariant is checked against.
func (e *Engine) tripDivergenceLocked(reason string, now int64) {
	if e.divGate {
		return
	}
	e.divGate = true
	e.divMu.Lock()
	e.divTripped = true
	e.divReason = reason
	e.divTick = now
	e.divTrips++
	e.divMu.Unlock()
}

// clearDivergenceLocked re-arms the guard, keeping the trip counter;
// e.mu held (the restore path).
func (e *Engine) clearDivergenceLocked() {
	e.divGate = false
	e.divMu.Lock()
	e.divTripped = false
	e.divReason = ""
	e.divTick = 0
	e.divMu.Unlock()
}

// noteTrainFaultLocked inspects a training error; non-finite faults
// (NaN/Inf loss, diverged parameter scan) trip the guard. e.mu held.
func (e *Engine) noteTrainFaultLocked(err error, now int64) {
	if errors.Is(err, tensor.ErrNonFinite) {
		e.tripDivergenceLocked(fmt.Sprintf("training fault: %v", err), now)
	}
}

// noteRewardLocked folds one sampled objective value into the collapse
// tracker; e.mu held, alloc-free.
func (e *Engine) noteRewardLocked(r float64) {
	if e.div.RewardCollapseFactor <= 1 {
		return
	}
	if !e.rewardSeeded {
		e.rewardEWMA = r
		e.rewardSeeded = true
		return
	}
	e.rewardEWMA = e.rewardEWMA*0.95 + r*0.05
}

// maybeProbeLocked runs the explicit NaN/Inf parameter probe when due.
// e.mu held; the probe reads the online arenas, so it runs between
// train steps.
func (e *Engine) maybeProbeLocked(steps, now int64) {
	if e.divGate || e.div.ProbeEverySteps <= 0 {
		return
	}
	if steps-e.lastProbeStep < e.div.ProbeEverySteps {
		return
	}
	e.lastProbeStep = steps
	if err := e.agent.ProbeFinite(); err != nil {
		e.tripDivergenceLocked(fmt.Sprintf("parameter probe: %v", err), now)
	}
}

// checkDivergenceLocked runs the windowed checks at the telemetry
// cadence (they read the same loss/steps the HistoryPoint does); e.mu
// held, alloc-free on the no-trip path.
func (e *Engine) checkDivergenceLocked(steps int64, loss float64, now int64) {
	if e.divGate || steps < e.div.MinSteps {
		return
	}
	// Belt and braces for paths whose loss telemetry can go non-finite
	// without a TrainStep error surfacing here (cluster mean-loss folds).
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		e.tripDivergenceLocked(fmt.Sprintf("non-finite loss EWMA %v at tick %d", loss, now), now)
		return
	}
	if f := e.div.LossExplodeFactor; f > 0 {
		// Window minimum over the retained telemetry ring, considering
		// only samples taken after the check armed.
		minLoss := math.Inf(1)
		points := 0
		for i := 0; i < e.hist.Len(); i++ {
			p := e.hist.at(i)
			if p.TrainSteps < e.div.MinSteps || p.Loss <= 0 {
				continue
			}
			points++
			if p.Loss < minLoss {
				minLoss = p.Loss
			}
		}
		if points >= e.div.MinPoints && loss > minLoss*f {
			e.tripDivergenceLocked(fmt.Sprintf(
				"loss explosion: EWMA %.4g > %.4g (window min %.4g × factor %g) at tick %d",
				loss, minLoss*f, minLoss, f, now), now)
			return
		}
	}
	if f := e.div.RewardCollapseFactor; f > 1 && e.rewardSeeded {
		if e.rewardEWMA > e.rewardPeak {
			e.rewardPeak = e.rewardEWMA
		}
		if e.rewardPeak > 0 && e.rewardEWMA < e.rewardPeak/f {
			e.tripDivergenceLocked(fmt.Sprintf(
				"reward collapse: EWMA %.4g < peak %.4g / factor %g at tick %d",
				e.rewardEWMA, e.rewardPeak, f, now), now)
		}
	}
}
