package capesd

import (
	"errors"
	"fmt"
	"time"

	"capes/internal/capes"
)

// The per-session supervisor: the self-healing layer between the
// control plane and the engine.
//
//   - Panic isolation: tickEngine runs every engine tick under recover;
//     a panic fails THIS session (shedding on, health=failed) and
//     nothing else.
//   - Divergence rollback: the engine's divergence policy (NaN/Inf loss
//     or parameters, loss-EWMA explosion, reward collapse — see
//     internal/capes/divergence.go) latches a trip the supervisor polls
//     without touching the engine lock. A tripped session is
//     quarantined — frames shed, no actions, no training — then rolled
//     back to its last good checkpoint after an exponential backoff,
//     with a bounded retry budget before escalating to failed.
//   - Tick watchdog: a tick that exceeds tick_deadline_ms (wedged
//     collector, deadlocked checker, stuck transport peer) trips the
//     same quarantine path; recovery swaps in a freshly built engine
//     restored from the last checkpoint, because the wedged one cannot
//     even be asked to restore itself.
//
// Accounting invariant, checked by the tests: once a session is
// quiesced (no trip mid-flight),
//
//	trips == rollbacks + failed_escalations + pending_trips.
//
// Every trip is eventually resolved exactly once: by a successful
// rollback/restart, by an escalation to failed, or it is still pending.

// Trip kinds.
const (
	tripPanic      = "panic"
	tripDivergence = "divergence"
	tripWatchdog   = "watchdog"
)

// maxBackoffShift caps the exponential rollback backoff at
// base << maxBackoffShift (default base 500ms → 32s ceiling).
const maxBackoffShift = 6

// healthyAfterBackoffs is how many quiet backoff periods a degraded
// session must string together before it is considered healthy again
// (and its consecutive-trip budget resets).
const healthyAfterBackoffs = 10

// supState is the supervisor's bookkeeping, guarded by Session.mu.
type supState struct {
	health            Health
	generation        int64
	trips             int64
	panicTrips        int64
	divergenceTrips   int64
	watchdogTrips     int64
	rollbacks         int64
	failedEscalations int64
	lastTripReason    string
	lastTripAt        time.Time
	pending           *pendingTrip
	consecutive       int       // trips since the last return to healthy
	nextRetryAt       time.Time // earliest recovery attempt for pending
	handledTickNs     int64     // watchdog dedup: last stamp already tripped on
}

// pendingTrip is a quarantine awaiting recovery.
type pendingTrip struct {
	kind   string
	reason string
}

func (s *Session) supervisorStatsLocked() SupervisorStats {
	st := SupervisorStats{
		Health:            s.sup.health,
		Generation:        s.sup.generation,
		Trips:             s.sup.trips,
		PanicTrips:        s.sup.panicTrips,
		DivergenceTrips:   s.sup.divergenceTrips,
		WatchdogTrips:     s.sup.watchdogTrips,
		Rollbacks:         s.sup.rollbacks,
		FailedEscalations: s.sup.failedEscalations,
		ShedFrames:        s.shedFrames.Load(),
		LastTripReason:    s.sup.lastTripReason,
	}
	if s.sup.pending != nil {
		st.PendingTrips = 1
	}
	if !s.sup.lastTripAt.IsZero() {
		st.LastTripAt = s.sup.lastTripAt.UTC().Format(time.RFC3339Nano)
	}
	return st
}

// notePanic converts a recovered engine-tick panic into a failed health
// state. Panics skip quarantine entirely: the engine's internal state
// after an arbitrary unwind point is not trustworthy enough to roll
// back in place, and restart-on-panic loops hide real bugs — a human
// (or the orchestrator) decides.
func (s *Session) notePanic(v interface{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateStopped {
		// Teardown artifact (e.g. a retired wedged engine unwinding into
		// the closed broadcast channel) — not a supervision event.
		return
	}
	if s.sup.health == HealthFailed {
		return
	}
	s.shedding.Store(true)
	s.sup.trips++
	s.sup.panicTrips++
	if s.sup.pending != nil {
		// A quarantined trip was pending when the panic landed; fold it
		// into the escalation so every trip is still resolved exactly once.
		s.sup.pending = nil
		s.sup.failedEscalations++
	}
	s.sup.failedEscalations++
	s.sup.health = HealthFailed
	s.sup.lastTripReason = fmt.Sprintf("panic: %v", v)
	s.sup.lastTripAt = time.Now()
}

// superviseLoop polls superviseOnce every interval until stop().
func (s *Session) superviseLoop(every time.Duration) {
	defer close(s.supDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.supStop:
			return
		case now := <-t.C:
			s.superviseOnce(now)
		}
	}
}

// superviseOnce runs one supervision pass at the given wall-clock time.
// Deterministic given the session's state and the clock, so tests drive
// it directly (SuperviseEveryMs = -1 disables the background loop).
func (s *Session) superviseOnce(now time.Time) {
	s.mu.Lock()
	if s.state == StateStopped || s.sup.health == HealthFailed {
		s.mu.Unlock()
		return
	}

	tickStart := s.tickStartNs.Load()

	// Watchdog first, and via atomics only: a wedged tick holds the
	// engine lock, so this check must not touch the engine. A running
	// checkpoint legitimately holds the engine lock for a while and is
	// masked out; handledTickNs stops one wedge from tripping every pass.
	if dl := s.cfg.TickDeadlineMs; dl > 0 && s.sup.pending == nil && !s.checkpointing.Load() {
		if tickStart != 0 && tickStart != s.sup.handledTickNs &&
			now.UnixNano()-tickStart > int64(dl)*int64(time.Millisecond) {
			s.sup.handledTickNs = tickStart
			s.tripLocked(tripWatchdog, fmt.Sprintf("tick wedged > %dms", dl), now)
		}
	}

	// Divergence poll. Engine.Divergence reads only the trip mirror
	// (never the engine lock), so it is safe even around a wedged tick —
	// but while a trip is already pending the engine's latch is just the
	// trip we know about.
	if s.sup.pending == nil {
		if reason, tick, tripped := s.engine().Divergence(); tripped {
			s.tripLocked(tripDivergence, fmt.Sprintf("%s (tick %d)", reason, tick), now)
		}
	}

	p := s.sup.pending
	retryDue := p != nil && !now.Before(s.sup.nextRetryAt)

	// Degraded → healthy after a sustained quiet period.
	if p == nil && s.sup.health == HealthDegraded &&
		now.Sub(s.sup.lastTripAt) > s.quietPeriod() {
		s.sup.health = HealthHealthy
		s.sup.consecutive = 0
	}
	s.mu.Unlock()

	if retryDue {
		s.recoverTrip(p, now)
	}
}

// quietPeriod is how long a degraded session must run trip-free before
// it is healthy again.
func (s *Session) quietPeriod() time.Duration {
	return time.Duration(s.cfg.RollbackBackoffMs) * time.Millisecond * healthyAfterBackoffs
}

// tripLocked quarantines the session for a divergence or watchdog trip
// (panics go through notePanic); s.mu held, s.sup.pending nil.
func (s *Session) tripLocked(kind, reason string, now time.Time) {
	s.shedding.Store(true)
	s.sup.trips++
	switch kind {
	case tripDivergence:
		s.sup.divergenceTrips++
	case tripWatchdog:
		s.sup.watchdogTrips++
	}
	s.sup.consecutive++
	s.sup.health = HealthQuarantined
	s.sup.pending = &pendingTrip{kind: kind, reason: reason}
	s.sup.lastTripReason = kind + ": " + reason
	s.sup.lastTripAt = now
	shift := s.sup.consecutive - 1
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	backoff := time.Duration(s.cfg.RollbackBackoffMs) * time.Millisecond << shift
	s.sup.nextRetryAt = now.Add(backoff)
}

// recoverTrip attempts the rollback/restart for a pending trip whose
// backoff has elapsed. Called without s.mu (restores are slow).
func (s *Session) recoverTrip(p *pendingTrip, now time.Time) {
	s.mu.Lock()
	if s.sup.pending != p || s.state == StateStopped {
		s.mu.Unlock()
		return
	}
	budgetSpent := s.sup.consecutive > s.cfg.MaxRollbacks
	s.mu.Unlock()

	if budgetSpent {
		s.escalateFailed(p, fmt.Sprintf("retry budget exhausted (%d consecutive trips > max_rollbacks %d)",
			s.supConsecutive(), s.cfg.MaxRollbacks))
		return
	}
	if s.cfg.CheckpointDir == "" {
		s.escalateFailed(p, "no checkpoint_dir to roll back to")
		return
	}

	switch p.kind {
	case tripDivergence:
		// Shedding stops new ticks at the door, but one may still be in
		// flight from before the trip; restoring under it would block the
		// supervisor on the engine lock. Let it drain and retry next pass.
		if s.tickStartNs.Load() != 0 {
			return
		}
		switch err := s.engine().RestoreSession(s.cfg.CheckpointDir); {
		case err == nil:
		case errors.Is(err, capes.ErrNoSession):
			s.escalateFailed(p, "no saved generation to roll back to")
			return
		default:
			s.escalateFailed(p, fmt.Sprintf("rollback failed: %v", err))
			return
		}
	case tripWatchdog:
		if err := s.restartEngine(); err != nil {
			s.escalateFailed(p, fmt.Sprintf("restart failed: %v", err))
			return
		}
	default:
		s.escalateFailed(p, "unknown trip kind "+p.kind)
		return
	}

	s.mu.Lock()
	if s.sup.pending == p {
		s.sup.pending = nil
		s.sup.rollbacks++
		s.sup.generation++
		s.sup.health = HealthDegraded
		s.sup.lastTripAt = now
	}
	s.mu.Unlock()
	s.shedding.Store(false)
}

func (s *Session) supConsecutive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sup.consecutive
}

// escalateFailed resolves a pending trip into the terminal failed
// state. Shedding stays on; the last-known-good checkpoint on disk is
// preserved (Checkpoint and the final save both refuse while failed).
func (s *Session) escalateFailed(p *pendingTrip, why string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sup.pending != p {
		return
	}
	s.sup.pending = nil
	s.sup.failedEscalations++
	s.sup.health = HealthFailed
	s.sup.lastTripReason = p.kind + " escalated to failed: " + why
}

// restartEngine is the watchdog recovery path: build a fresh engine,
// restore it from the last good checkpoint, and swap it in. The wedged
// engine is stopped asynchronously — Stop blocks until its in-flight
// tick finally unwinds, which is exactly what we cannot wait for.
func (s *Session) restartEngine() error {
	if s.engCfg.Cluster != nil && s.engCfg.Cluster.Role != "" {
		// The data-parallel gradient plane (leader listener or follower
		// dial state) is bound to the wedged engine; a silent in-place
		// rebuild would fork the cluster. Escalate instead.
		return fmt.Errorf("cluster session: gradient plane is bound to the wedged engine")
	}
	eng, _, err := s.bootEngine()
	if err != nil {
		return err
	}
	eng.SetActionHook(s.actionHook)
	s.engMu.Lock()
	old := s.eng
	s.eng = eng
	s.engMu.Unlock()
	go old.Stop()
	return nil
}
