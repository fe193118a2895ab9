package capesd

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"

	"capes/internal/tensor"
)

// ErrSessionExists reports a Create against a name already in use (or
// being created); the control plane maps it to 409 Conflict.
var ErrSessionExists = errors.New("capesd: session already exists")

// ErrInvalidSession reports a Create whose config failed validation;
// the control plane maps it to 400 Bad Request. Other Create errors are
// operational (bind failure, unreadable checkpoint) and map to 500.
var ErrInvalidSession = errors.New("capesd: invalid session config")

// Manager owns the process's tuning sessions: create, look up, pause,
// checkpoint and drain them, and shut the whole herd down with one
// concurrent final checkpoint. It is the in-process API behind both
// cmd/capesd and the HTTP control plane.
type Manager struct {
	mu       sync.Mutex
	sessions map[string]*Session
	dirs     map[string]string // checkpoint_dir → owning session name
	closed   bool

	// authToken, when non-empty, gates every mutating control-plane
	// endpoint behind "Authorization: Bearer <token>".
	authToken string

	httpLn  net.Listener
	httpSrv *http.Server
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{
		sessions: make(map[string]*Session),
		dirs:     make(map[string]string),
	}
}

// Boot creates every session in cfg and, when cfg.HTTP is set, starts
// the control plane. On any session error the already-created sessions
// are stopped so a half-booted process does not linger.
func Boot(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := NewManager()
	m.SetAuthToken(cfg.AuthToken)
	for _, sc := range cfg.Sessions {
		if _, err := m.Create(sc); err != nil {
			m.Shutdown()
			return nil, err
		}
	}
	if cfg.HTTP != "" {
		if _, err := m.StartHTTP(cfg.HTTP); err != nil {
			m.Shutdown()
			return nil, err
		}
	}
	return m, nil
}

// SetAuthToken installs (or clears) the bearer token required by the
// mutating control-plane endpoints. Must be called before StartHTTP.
func (m *Manager) SetAuthToken(token string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.authToken = token
}

// Create validates, builds and starts a new session.
func (m *Manager) Create(cfg SessionConfig) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidSession, err)
	}
	if cfg.CheckpointDir != "" {
		// Normalize before reserving so "a" and "a/" are one directory.
		cfg.CheckpointDir = filepath.Clean(cfg.CheckpointDir)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("capesd: manager is shut down")
	}
	if _, ok := m.sessions[cfg.Name]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrSessionExists, cfg.Name)
	}
	// Two sessions sharing a checkpoint directory would interleave
	// concurrent saves into one model.ckpt/replay.db and corrupt both.
	if cfg.CheckpointDir != "" {
		if owner, ok := m.dirs[cfg.CheckpointDir]; ok {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: checkpoint_dir %q already used by session %q",
				ErrInvalidSession, cfg.CheckpointDir, owner)
		}
	}
	// Reserve the name and dir before the (slow) build so two concurrent
	// creates cannot both proceed.
	m.sessions[cfg.Name] = nil
	if cfg.CheckpointDir != "" {
		m.dirs[cfg.CheckpointDir] = cfg.Name
	}
	m.mu.Unlock()

	release := func() {
		delete(m.sessions, cfg.Name)
		if cfg.CheckpointDir != "" {
			delete(m.dirs, cfg.CheckpointDir)
		}
	}
	s, err := newSession(cfg)
	m.mu.Lock()
	if err != nil {
		release()
		m.mu.Unlock()
		return nil, err
	}
	if m.closed {
		release()
		m.mu.Unlock()
		s.Stop()
		return nil, fmt.Errorf("capesd: manager is shut down")
	}
	m.sessions[cfg.Name] = s
	m.mu.Unlock()
	return s, nil
}

// Get looks a session up by name.
func (m *Manager) Get(name string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[name]
	return s, ok && s != nil
}

// Sessions returns the live sessions sorted by name.
func (m *Manager) Sessions() []*Session {
	m.mu.Lock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != nil {
			out = append(out, s)
		}
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Delete drains and removes a session. For checkpoint-enabled sessions
// the checkpoint is written BEFORE teardown and a failure aborts the
// delete — otherwise a full disk would destroy the trained model with
// no retry path. The checkpoint-dir reservation is released only after
// the session is fully stopped, so a re-create of the same directory
// can never overlap the outgoing session's writes.
func (m *Manager) Delete(name string) error {
	m.mu.Lock()
	s, ok := m.sessions[name]
	if !ok || s == nil {
		m.mu.Unlock()
		return fmt.Errorf("capesd: no session %q", name)
	}
	m.mu.Unlock()
	if s.cfg.CheckpointDir != "" {
		if err := s.Checkpoint(); err != nil {
			return fmt.Errorf("capesd: session %q not deleted: %w", name, err)
		}
	}
	m.mu.Lock()
	delete(m.sessions, name)
	m.mu.Unlock()
	// The checkpoint above is the delete's save; the few ticks that may
	// land between it and teardown are knowingly discarded rather than
	// paying a second full model+replay write.
	err := s.stop(false)
	if s.cfg.CheckpointDir != "" {
		m.mu.Lock()
		delete(m.dirs, s.cfg.CheckpointDir)
		m.mu.Unlock()
	}
	return err
}

// CheckpointAll saves every checkpoint-enabled session concurrently
// (the POST /checkpoint endpoint). It returns the names saved and any
// failures by session name.
func (m *Manager) CheckpointAll() ([]string, map[string]error) {
	sessions := m.Sessions()
	var saved []string
	errs := make(map[string]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range sessions {
		if s.cfg.CheckpointDir == "" {
			continue
		}
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			err := s.Checkpoint()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[s.Name()] = err
				return
			}
			saved = append(saved, s.Name())
		}(s)
	}
	wg.Wait()
	sort.Strings(saved)
	return saved, errs
}

// AggregateStats is the whole-process control-plane view. KernelTier
// names the SIMD tier the process's tensor kernels run on (scalar, avx2
// or avx512) so perf numbers scraped from /stats can be compared across
// hosts — bench baselines are only meaningful within one tier.
type AggregateStats struct {
	Sessions   []SessionStats `json:"sessions"`
	Totals     Totals         `json:"totals"`
	KernelTier string         `json:"kernel_tier"`
}

// Totals sums the headline counters across sessions.
type Totals struct {
	Sessions      int   `json:"sessions"`
	Running       int   `json:"running"`
	TrainSteps    int64 `json:"train_steps"`
	ReplayRecords int   `json:"replay_records"`
	ReplayBytes   int64 `json:"replay_bytes"`
	Vetoes        int64 `json:"vetoes"`
	TrainErrors   int64 `json:"train_errors"`
	MissedSamples int64 `json:"missed_samples"`
	HistoryPoints int64 `json:"history_points"`

	// Transport fault-tolerance totals across every session's daemon.
	Reconnects     int64 `json:"reconnects"`
	Evictions      int64 `json:"evictions"`
	PartialFrames  int64 `json:"partial_frames"`
	GapFilledSlots int64 `json:"gap_filled_slots"`
	DroppedTicks   int64 `json:"dropped_ticks"`
	DroppedActions int64 `json:"dropped_actions"`

	// Supervision totals: health census plus self-healing counters.
	Healthy           int   `json:"healthy"`
	Degraded          int   `json:"degraded"`
	Quarantined       int   `json:"quarantined"`
	Failed            int   `json:"failed"`
	Trips             int64 `json:"trips"`
	Rollbacks         int64 `json:"rollbacks"`
	FailedEscalations int64 `json:"failed_escalations"`
	ShedFrames        int64 `json:"shed_frames"`
}

// AggregateStats snapshots every session plus cross-session totals.
func (m *Manager) AggregateStats() AggregateStats {
	agg := AggregateStats{KernelTier: tensor.KernelTier()}
	for _, s := range m.Sessions() {
		st := s.Stats()
		agg.Sessions = append(agg.Sessions, st)
		agg.Totals.Sessions++
		if st.State == StateRunning {
			agg.Totals.Running++
		}
		agg.Totals.TrainSteps += st.Engine.TrainSteps
		agg.Totals.ReplayRecords += st.Engine.ReplayRecords
		agg.Totals.ReplayBytes += st.Engine.ReplayBytes
		agg.Totals.Vetoes += st.Engine.Vetoes
		agg.Totals.TrainErrors += st.Engine.TrainErrors
		agg.Totals.MissedSamples += st.Engine.MissedSamples
		agg.Totals.HistoryPoints += int64(st.Engine.HistoryPoints)
		agg.Totals.Reconnects += st.Transport.Reconnects
		agg.Totals.Evictions += st.Transport.Evictions
		agg.Totals.PartialFrames += st.Transport.PartialFrames
		agg.Totals.GapFilledSlots += st.Transport.GapFilledSlots
		agg.Totals.DroppedTicks += st.Transport.DroppedTicks
		agg.Totals.DroppedActions += st.Transport.DroppedActions
		switch st.Supervisor.Health {
		case HealthHealthy:
			agg.Totals.Healthy++
		case HealthDegraded:
			agg.Totals.Degraded++
		case HealthQuarantined:
			agg.Totals.Quarantined++
		case HealthFailed:
			agg.Totals.Failed++
		}
		agg.Totals.Trips += st.Supervisor.Trips
		agg.Totals.Rollbacks += st.Supervisor.Rollbacks
		agg.Totals.FailedEscalations += st.Supervisor.FailedEscalations
		agg.Totals.ShedFrames += st.Supervisor.ShedFrames
	}
	return agg
}

// Drain pauses every session and writes a final checkpoint for each
// checkpoint-enabled one — the graceful-shutdown half of SIGTERM
// handling, separated from Shutdown so the caller can report checkpoint
// failures before tearing the process down. Quarantined/failed sessions
// refuse their checkpoint by design (the last-known-good generation on
// disk must survive); those refusals are not drain failures.
func (m *Manager) Drain() (saved []string, errs map[string]error) {
	for _, s := range m.Sessions() {
		// Pause only fails on stopped sessions, which no longer tick.
		_ = s.Pause()
	}
	saved, errs = m.CheckpointAll()
	for name := range errs {
		if s, ok := m.Get(name); ok {
			if h := s.Health(); h == HealthQuarantined || h == HealthFailed {
				delete(errs, name)
			}
		}
	}
	return saved, errs
}

// Shutdown stops the control plane and drains every session
// concurrently — each one checkpoints in parallel with the others, so a
// graceful SIGTERM costs one checkpoint latency, not N. Returns every
// session stop error (nil when all clean).
func (m *Manager) Shutdown() []error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != nil {
			sessions = append(sessions, s)
		}
	}
	m.sessions = make(map[string]*Session)
	m.dirs = make(map[string]string)
	srv, ln := m.httpSrv, m.httpLn
	m.mu.Unlock()

	if srv != nil {
		srv.Close()
	} else if ln != nil {
		ln.Close()
	}

	errCh := make(chan error, len(sessions))
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			if err := s.Stop(); err != nil {
				errCh <- fmt.Errorf("%s: %w", s.Name(), err)
			}
		}(s)
	}
	wg.Wait()
	close(errCh)
	var errs []error
	for err := range errCh {
		errs = append(errs, err)
	}
	return errs
}
