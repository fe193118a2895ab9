package capesd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"capes/internal/agent"
	"capes/internal/capes"
	"capes/internal/replay"
)

// State is a session's lifecycle state.
type State string

const (
	// StateRunning: the daemon is accepting agents and frames drive the
	// engine.
	StateRunning State = "running"
	// StatePaused: frames are still assembled but the engine is not
	// ticked — no sampling, actions or training until Resume.
	StatePaused State = "paused"
	// StateStopped: the engine is drained and the daemon closed; the
	// session only remains visible for a final Stats read.
	StateStopped State = "stopped"
)

// Health is a session's supervision state, orthogonal to the lifecycle
// State: a session can be running-and-quarantined (collecting frames
// while the supervisor rolls it back) or paused-and-healthy. See
// supervisor.go for the transitions.
type Health string

const (
	// HealthHealthy: no un-recovered trips.
	HealthHealthy Health = "healthy"
	// HealthDegraded: recovered from a trip via rollback/restart; returns
	// to healthy after a quiet period with no further trips.
	HealthDegraded Health = "degraded"
	// HealthQuarantined: a trip is pending recovery — the engine sheds
	// frames, issues no actions and takes no train steps until the
	// supervisor rolls it back to the last good checkpoint.
	HealthQuarantined Health = "quarantined"
	// HealthFailed: a panic, an exhausted retry budget, or an
	// unrecoverable rollback. The session sheds all frames and will not
	// overwrite its last-known-good checkpoint; sibling sessions are
	// unaffected.
	HealthFailed Health = "failed"
)

// Session is one named tuning target: a capes.Engine fed by its own
// agent.Daemon, with an independent action space, objective, checkpoint
// directory and lifecycle. All sessions in a process share the
// process-wide tensor worker pool, so N sessions cost N replay buffers
// and networks but one set of compute workers.
//
// Every session is supervised (see supervisor.go): engine ticks run
// under recover, a divergence trip or wedged tick quarantines the
// session and rolls it back to its last good checkpoint, and ingest
// beyond the configured quota is shed before it reaches the engine.
type Session struct {
	cfg    SessionConfig
	engCfg capes.Config
	dmn    *agent.Daemon

	// eng is swappable: the watchdog recovery path replaces a wedged
	// engine with a freshly built one restored from the last checkpoint.
	// All access goes through engine(); engMu is held only across the
	// pointer read/swap, never across engine calls.
	engMu sync.RWMutex
	eng   *capes.Engine

	paused atomic.Bool
	// shedding drops monitor frames before they reach the engine — set
	// while quarantined or failed, and by the ingest quota below.
	shedding   atomic.Bool
	shedFrames atomic.Int64
	// tickStartNs is the wall-clock start of the in-flight engine tick
	// (0 = idle): the watchdog's only view of a wedged engine, readable
	// without any lock the wedged tick could be holding.
	tickStartNs atomic.Int64
	// checkpointing masks the watchdog while SaveSession legitimately
	// holds the engine lock (a slow checkpoint is not a wedged tick).
	checkpointing atomic.Bool

	// statsMu guards the last-good engine snapshot. Stats serves it
	// instead of calling into the engine while a tick is wedged past its
	// deadline — the control plane must stay responsive while the
	// watchdog is deciding to restart that engine.
	statsMu      sync.Mutex
	lastEngineSt capes.Stats
	lastValues   []float64

	bcast chan broadcastMsg

	frameMu sync.Mutex
	latest  replay.Frame

	// Ingest quota token bucket (MaxFramesPerSec; one-second burst).
	quotaMu     sync.Mutex
	quotaTokens float64
	quotaLast   time.Time

	mu             sync.Mutex
	state          State
	restored       bool
	lastCheckpoint time.Time
	workloadBumps  int64
	sup            supState

	supStop chan struct{}
	supDone chan struct{}
}

// broadcastMsg is one applied action queued for Control Agents.
type broadcastMsg struct {
	tick   int64
	action int
	values []float64
}

// newSession builds, restores (when a checkpoint exists) and starts a
// session. cfg must already be validated; defaults are applied here.
func newSession(cfg SessionConfig) (*Session, error) {
	cfg = cfg.withDefaults()
	engCfg, err := cfg.engineConfig()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidSession, err)
	}
	s := &Session{
		cfg:     cfg,
		engCfg:  engCfg,
		state:   StateRunning,
		supStop: make(chan struct{}),
		supDone: make(chan struct{}),
	}
	s.sup.health = HealthHealthy

	eng, restored, err := s.bootEngine()
	if err != nil {
		return nil, err
	}
	s.eng, s.restored = eng, restored

	// Best-effort boot sync for cluster followers: joining now means the
	// very first train tick already aggregates this worker. Failure is
	// not fatal — the engine redials and resyncs on its train ticks, so
	// a follower booted before its leader converges on its own.
	if engCfg.Cluster != nil && engCfg.Cluster.Role == capes.ClusterFollower {
		_ = eng.ClusterSync()
	}

	dmn, err := agent.NewDaemonOpts(cfg.Listen, cfg.Clients, cfg.PIsPerClient,
		func(tick int64, frame []float64) {
			if s.paused.Load() || !s.admitFrame() {
				return
			}
			s.frameMu.Lock()
			s.latest = frame
			s.frameMu.Unlock()
			s.tickEngine(tick)
		},
		func(tick int64, name string) {
			s.engine().NotifyWorkloadChange(tick)
			s.mu.Lock()
			s.workloadBumps++
			s.mu.Unlock()
		},
		agent.DaemonOpts{LivenessTimeout: time.Duration(cfg.LivenessTimeoutMs) * time.Millisecond})
	if err != nil {
		return nil, fmt.Errorf("session %s: listen %s: %w", cfg.Name, cfg.Listen, err)
	}
	s.dmn = dmn

	// Broadcast applied actions from a dedicated goroutine: the hook
	// runs under the engine lock, so it must never touch the network —
	// a stalled control-agent connection would otherwise freeze Tick,
	// Stats and the whole control plane. The channel is installed after
	// s.dmn so the hook can never observe a nil daemon (SetActionHook's
	// lock is the happens-before edge), and a full channel drops the
	// oldest semantics-free way: the next action supersedes.
	s.bcast = make(chan broadcastMsg, 16)
	go func() {
		for msg := range s.bcast {
			dmn.BroadcastAction(msg.tick, msg.action, msg.values)
		}
	}()
	eng.SetActionHook(s.actionHook)

	if cfg.SuperviseEveryMs > 0 {
		go s.superviseLoop(time.Duration(cfg.SuperviseEveryMs) * time.Millisecond)
	} else {
		// Supervision loop disabled (tests drive superviseOnce directly);
		// stop() must not wait on it.
		close(s.supDone)
	}
	return s, nil
}

// bootEngine builds a fresh engine and restores the session's checkpoint
// into it — at creation and on the watchdog restart path. The checkpoint
// is read on a second goroutine while the engine is built, and committed
// once both are done: the engine is built and restored exactly as
// buildEngine followed by RestoreSession would, so its RNG draws and
// every trajectory are the same. restored reports whether a checkpoint
// was found; a directory without one is a first boot and no error. The
// reader is always waited for, so no goroutine outlives the call.
func (s *Session) bootEngine() (*capes.Engine, bool, error) {
	type checkpoint struct {
		cp  *capes.Checkpoint
		err error
	}
	loaded := make(chan checkpoint, 1)
	if dir := s.cfg.CheckpointDir; dir == "" {
		loaded <- checkpoint{err: capes.ErrNoSession}
	} else {
		go func() {
			cp, err := capes.LoadCheckpoint(dir)
			loaded <- checkpoint{cp, err}
		}()
	}
	eng, err := s.buildEngine()
	ld := <-loaded
	if err != nil {
		// buildEngine only rejects bad configuration (hyper, space, …).
		return nil, false, fmt.Errorf("%w: session %s: %w", ErrInvalidSession, s.cfg.Name, err)
	}
	if ld.err == nil {
		ld.err = eng.Restore(ld.cp)
	}
	switch {
	case ld.err == nil:
		return eng, true, nil
	case errors.Is(ld.err, capes.ErrNoSession):
		return eng, false, nil // first boot: nothing to restore, start fresh
	default:
		// A checkpoint exists but cannot be loaded — corrupt or shaped
		// for a different session. Failing loudly beats silently
		// retraining from scratch over it.
		eng.Stop()
		return nil, false, fmt.Errorf("session %s: restoring %s: %w", s.cfg.Name, s.cfg.CheckpointDir, ld.err)
	}
}

// buildEngine constructs a fresh engine bound to the session's shared
// frame buffer (the closures capture s, not the engine, so they survive
// a watchdog swap).
func (s *Session) buildEngine() (*capes.Engine, error) {
	eng, err := capes.NewEngine(s.engCfg,
		func() (replay.Frame, error) {
			s.frameMu.Lock()
			defer s.frameMu.Unlock()
			if s.latest == nil {
				return nil, fmt.Errorf("no frame yet")
			}
			return s.latest, nil
		},
		// The engine holds its lock while applying actions, so the
		// controller must not call back into it; the ActionHook below
		// carries the tick and action id to the broadcast instead.
		func([]float64) error { return nil })
	if err != nil {
		return nil, err
	}
	if s.cfg.Exploit {
		eng.SetExploit(true)
	}
	return eng, nil
}

// actionHook queues one applied action for the broadcast goroutine;
// runs under the engine lock, so it never blocks: a full channel evicts
// the oldest queued action (the new action supersedes). The hook is the
// only producer for live engines; a retired (swapped-out) engine's
// in-flight tick may also land here, which at worst re-broadcasts a
// stale action.
func (s *Session) actionHook(tick int64, action int, values []float64) {
	msg := broadcastMsg{tick, action, append([]float64(nil), values...)}
	for {
		select {
		case s.bcast <- msg:
			return
		default:
		}
		select {
		case <-s.bcast:
		default:
		}
	}
}

// engine returns the session's current engine (the pointer may change
// across a watchdog restart; callers must not cache it across trips).
func (s *Session) engine() *capes.Engine {
	s.engMu.RLock()
	defer s.engMu.RUnlock()
	return s.eng
}

// tickEngine drives one engine tick under the session's panic isolation
// and watchdog stamp. A panic anywhere below (engine, collector,
// checker, a fault injection) is converted into a failed health state
// for THIS session; sibling sessions and the control plane keep
// running.
func (s *Session) tickEngine(tick int64) {
	eng := s.engine()
	start := time.Now().UnixNano()
	s.tickStartNs.Store(start)
	defer func() {
		// CAS so a concurrent tick's fresher stamp is not clobbered by
		// this one finishing late.
		s.tickStartNs.CompareAndSwap(start, 0)
		if r := recover(); r != nil {
			s.notePanic(r)
		}
	}()
	eng.Tick(tick)
}

// admitFrame is the overload-shedding gate on the monitor-frame path,
// before any engine lock: quarantined/failed sessions shed everything,
// and the ingest quota sheds frames beyond MaxFramesPerSec (token
// bucket with a one-second burst). Shed frames are counted — they are
// an explicit backpressure signal, on top of the transport ring's
// Stale() accounting.
func (s *Session) admitFrame() bool {
	if s.shedding.Load() {
		s.shedFrames.Add(1)
		return false
	}
	limit := s.cfg.MaxFramesPerSec
	if limit <= 0 {
		return true
	}
	now := time.Now()
	s.quotaMu.Lock()
	defer s.quotaMu.Unlock()
	if s.quotaLast.IsZero() {
		s.quotaTokens = float64(limit)
	} else {
		s.quotaTokens += now.Sub(s.quotaLast).Seconds() * float64(limit)
		if burst := float64(limit); s.quotaTokens > burst {
			s.quotaTokens = burst
		}
	}
	s.quotaLast = now
	if s.quotaTokens < 1 {
		s.shedFrames.Add(1)
		return false
	}
	s.quotaTokens--
	return true
}

// Name returns the session's control-plane identifier.
func (s *Session) Name() string { return s.cfg.Name }

// Addr returns the agent-facing listen address actually bound (resolves
// ":0" configs).
func (s *Session) Addr() string { return s.dmn.Addr() }

// Engine exposes the session's current engine (safe: the engine
// serializes internally). The pointer changes across a watchdog
// restart.
func (s *Session) Engine() *capes.Engine { return s.engine() }

// State returns the lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Health returns the supervision state.
func (s *Session) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sup.health
}

// Pause stops ticking the engine; agents stay connected and frames are
// discarded until Resume.
func (s *Session) Pause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateStopped {
		return fmt.Errorf("session %s is stopped", s.cfg.Name)
	}
	s.paused.Store(true)
	s.state = StatePaused
	return nil
}

// Resume restarts ticking after Pause.
func (s *Session) Resume() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateStopped {
		return fmt.Errorf("session %s is stopped", s.cfg.Name)
	}
	s.paused.Store(false)
	s.state = StateRunning
	return nil
}

// Checkpoint saves the session to its configured checkpoint directory.
// The engine lock makes the snapshot consistent even mid-training. A
// quarantined or failed session refuses: its in-memory state is exactly
// what tripped the supervisor, and overwriting the last-known-good
// generation would leave nothing to roll back to.
func (s *Session) Checkpoint() error {
	if s.cfg.CheckpointDir == "" {
		return fmt.Errorf("session %s has no checkpoint_dir", s.cfg.Name)
	}
	s.mu.Lock()
	health := s.sup.health
	s.mu.Unlock()
	if health == HealthQuarantined || health == HealthFailed {
		return fmt.Errorf("session %s: refusing checkpoint while %s (protecting last-known-good generation)",
			s.cfg.Name, health)
	}
	s.checkpointing.Store(true)
	defer s.checkpointing.Store(false)
	if err := s.engine().SaveSession(s.cfg.CheckpointDir); err != nil {
		return fmt.Errorf("session %s: %w", s.cfg.Name, err)
	}
	s.mu.Lock()
	s.lastCheckpoint = time.Now()
	s.mu.Unlock()
	return nil
}

// Stop drains and tears the session down: the engine stops accepting
// ticks, the daemon closes every agent connection, and — when a
// checkpoint directory is configured — a final checkpoint is written.
// Stop is idempotent.
func (s *Session) Stop() error { return s.stop(true) }

// stop is Stop with the final checkpoint optional (the Delete path
// checkpoints up front so a save failure can abort the delete; a second
// save here would be redundant).
func (s *Session) stop(finalCheckpoint bool) error {
	s.mu.Lock()
	if s.state == StateStopped {
		s.mu.Unlock()
		return nil
	}
	s.state = StateStopped
	health := s.sup.health
	s.mu.Unlock()

	// Supervisor first: no rollback/restart may race the teardown.
	close(s.supStop)
	<-s.supDone

	// Engine next: Stop blocks until any in-flight Tick (and thus any
	// hook call) completes, after which closing the broadcast channel
	// cannot race a send. (A wedged engine retired by the watchdog can
	// still unwind into the closed channel later; tickEngine's recover
	// absorbs that, and notePanic ignores stopped sessions.)
	s.engine().Stop()
	close(s.bcast)
	err := s.dmn.Close()
	// A quarantined/failed session skips the terminal checkpoint for
	// the same reason Checkpoint refuses: the last-known-good generation
	// on disk must survive the broken in-memory state.
	if finalCheckpoint && s.cfg.CheckpointDir != "" &&
		health != HealthQuarantined && health != HealthFailed {
		if cerr := s.Checkpoint(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// SupervisorStats is the control-plane view of a session's supervision
// state. The accounting invariant Trips == Rollbacks +
// FailedEscalations + PendingTrips holds whenever the session is
// quiesced (no trip mid-flight).
type SupervisorStats struct {
	Health            Health `json:"health"`
	Generation        int64  `json:"generation"` // bumps per successful rollback/restart
	Trips             int64  `json:"trips"`
	PanicTrips        int64  `json:"panic_trips"`
	DivergenceTrips   int64  `json:"divergence_trips"`
	WatchdogTrips     int64  `json:"watchdog_trips"`
	Rollbacks         int64  `json:"rollbacks"`
	FailedEscalations int64  `json:"failed_escalations"`
	PendingTrips      int64  `json:"pending_trips"`
	ShedFrames        int64  `json:"shed_frames"`
	LastTripReason    string `json:"last_trip_reason,omitempty"`
	LastTripAt        string `json:"last_trip_at,omitempty"`
}

// SessionStats is the control-plane view of one session.
type SessionStats struct {
	Name           string      `json:"name"`
	State          State       `json:"state"`
	Addr           string      `json:"addr"`
	Clients        int         `json:"clients"`
	CheckpointDir  string      `json:"checkpoint_dir,omitempty"`
	Restored       bool        `json:"restored"`
	LastCheckpoint string      `json:"last_checkpoint,omitempty"`
	ControlAgents  int         `json:"control_agents"`
	WorkloadBumps  int64       `json:"workload_bumps"`
	CurrentValues  []float64   `json:"current_values"`
	Engine         capes.Stats `json:"engine"`
	// Transport counts the daemon-side fault-tolerance events:
	// reconnects, evictions, gap-filled partial frames, dropped ticks
	// and dropped actions for this session's agent transport.
	Transport agent.TransportStats `json:"transport"`
	// Supervisor is the self-healing layer's health and accounting.
	Supervisor SupervisorStats `json:"supervisor"`
}

// Stats snapshots the session (safe while agents are ticking it).
// While a tick is wedged past its watchdog deadline the engine lock is
// unavailable, possibly forever; Stats then serves the last-good engine
// snapshot instead of blocking, so /stats and /healthz keep answering
// while the supervisor restarts the engine.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	state := s.state
	restored := s.restored
	last := s.lastCheckpoint
	bumps := s.workloadBumps
	sup := s.supervisorStatsLocked()
	wedgedTrip := s.sup.pending != nil && s.sup.pending.kind == tripWatchdog
	s.mu.Unlock()
	engStats, values := s.engineSnapshot(wedgedTrip)
	st := SessionStats{
		Name:          s.cfg.Name,
		State:         state,
		Addr:          s.dmn.Addr(),
		Clients:       s.cfg.Clients,
		CheckpointDir: s.cfg.CheckpointDir,
		Restored:      restored,
		ControlAgents: s.dmn.NumControlAgents(),
		WorkloadBumps: bumps,
		CurrentValues: values,
		Engine:        engStats,
		Transport:     s.dmn.TransportStats(),
		Supervisor:    sup,
	}
	if !last.IsZero() {
		st.LastCheckpoint = last.UTC().Format(time.RFC3339)
	}
	return st
}

// engineSnapshot reads the engine's stats, or the cached last-good
// snapshot when the engine cannot be read without blocking: a pending
// watchdog trip (the supervisor already decided the tick is wedged) or
// an in-flight tick past the deadline (a caller racing ahead of the
// supervision loop).
func (s *Session) engineSnapshot(wedgedTrip bool) (capes.Stats, []float64) {
	if wedgedTrip || s.tickOverdue() {
		s.statsMu.Lock()
		defer s.statsMu.Unlock()
		return s.lastEngineSt, s.lastValues
	}
	eng := s.engine()
	engStats := eng.Stats()
	values := eng.CurrentValues()
	s.statsMu.Lock()
	s.lastEngineSt = engStats
	s.lastValues = values
	s.statsMu.Unlock()
	return engStats, values
}

// tickOverdue reports an in-flight tick older than the watchdog
// deadline (and not a legitimate checkpoint holding the engine lock).
// With no deadline configured there is no wedge detection — callers
// block on the engine as before.
func (s *Session) tickOverdue() bool {
	dl := s.cfg.TickDeadlineMs
	if dl <= 0 || s.checkpointing.Load() {
		return false
	}
	start := s.tickStartNs.Load()
	return start != 0 && time.Now().UnixNano()-start > int64(dl)*int64(time.Millisecond)
}
