// Package capesd is the capesd session-manager subsystem: it hosts many
// concurrent tuning sessions — each a capes.Engine (DRL engine) paired
// with an agent.Daemon (Interface Daemon, Figure 1) — inside one
// process, all sharing the process-wide tensor worker pool. The paper
// deploys one daemon+engine per tuning target (§3.3); the manager
// generalizes that to N targets per process, fronted by an HTTP/JSON
// control plane for create/inspect/checkpoint/pause/delete.
package capesd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"capes/internal/capes"
	"capes/internal/storesim"
)

// Config is the declarative multi-session capesd configuration, loaded
// from a JSON file. Example:
//
//	{
//	  "http": "127.0.0.1:8080",
//	  "sessions": [
//	    {"name": "alpha", "listen": "127.0.0.1:7070", "clients": 5,
//	     "checkpoint_dir": "/var/lib/capes/alpha"},
//	    {"name": "beta", "listen": "127.0.0.1:7071", "clients": 3,
//	     "exploit": true}
//	  ]
//	}
type Config struct {
	// HTTP is the control-plane listen address ("" disables it).
	HTTP string `json:"http,omitempty"`
	// AuthToken, when set, is required as "Authorization: Bearer <token>"
	// on every mutating control-plane endpoint (create/pause/resume/
	// checkpoint/delete). Read-only endpoints stay open — they are what
	// liveness probes and dashboards scrape. "" disables authentication.
	AuthToken string `json:"auth_token,omitempty"`
	// Sessions created at boot. More can be added over HTTP.
	Sessions []SessionConfig `json:"sessions"`
}

// SessionConfig describes one tuning session: its target cluster shape,
// action space, objective and lifecycle knobs. Zero values mean "use
// the default" for every optional field.
type SessionConfig struct {
	// Name identifies the session in the control plane (URL-safe).
	Name string `json:"name"`
	// Listen is the agent-facing TCP address (":0" picks a free port).
	Listen string `json:"listen"`
	// Clients is the number of monitored client nodes.
	Clients int `json:"clients"`
	// PIsPerClient defaults to storesim.NumClientPIs.
	PIsPerClient int `json:"pis_per_client,omitempty"`
	// ObsTicks is the sampling ticks stacked per observation (default 5).
	ObsTicks int `json:"obs_ticks,omitempty"`
	// CheckpointDir enables save/restore for this session ("" disables).
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	// Seed defaults to 1.
	Seed int64 `json:"seed,omitempty"`
	// MonitorOnly collects and trains but never issues actions.
	MonitorOnly bool `json:"monitor_only,omitempty"`
	// Exploit runs the greedy policy with no training (measured tuning).
	Exploit bool `json:"exploit,omitempty"`
	// Tunables defaults to the evaluation's Lustre pair (§4.1).
	Tunables []TunableConfig `json:"tunables,omitempty"`
	// Objective defaults to aggregate read+write throughput.
	Objective *ObjectiveConfig `json:"objective,omitempty"`
	// RewardMode is "delta" (default) or "absolute".
	RewardMode string `json:"reward_mode,omitempty"`
	// Cluster joins this session's DRL engine to a data-parallel
	// co-training cluster (capes cluster mode): followers stream their
	// gradients to one leader, which reduces them in fixed rank order and
	// sends the mean back; every worker then runs the same optimizer
	// step.
	Cluster *ClusterConfig `json:"cluster,omitempty"`

	// LivenessTimeoutMs evicts an agent connection that sends nothing —
	// not even a heartbeat — for this long (0 = the agent package's
	// default, 30 s).
	LivenessTimeoutMs int `json:"liveness_timeout_ms,omitempty"`

	// Optional hyperparameter overrides (zero = Table 1 default).
	TrainStartTicks int64 `json:"train_start_ticks,omitempty"`
	TrainEvery      int64 `json:"train_every,omitempty"`
	MinibatchSize   int   `json:"minibatch_size,omitempty"`
	ReplayCapacity  int   `json:"replay_capacity,omitempty"`

	// Training-telemetry ring knobs (zero = engine defaults: one sample
	// per 10 ticks, 1024 retained). history_every: -1 disables.
	HistoryEvery int64 `json:"history_every,omitempty"`
	HistoryCap   int   `json:"history_cap,omitempty"`

	// Supervision knobs (see supervisor.go). TickDeadlineMs arms the
	// tick watchdog: an engine tick in flight longer than this is
	// declared wedged and the session restarts through the rollback
	// path. 0 disables the watchdog (the default — deadlines are
	// deployment-specific).
	TickDeadlineMs int `json:"tick_deadline_ms,omitempty"`
	// MaxRollbacks bounds consecutive automatic rollbacks before the
	// supervisor gives up and fails the session (0 = default 3).
	MaxRollbacks int `json:"max_rollbacks,omitempty"`
	// RollbackBackoffMs is the base delay between a trip and its
	// rollback attempt, doubling per consecutive trip (0 = default 500).
	RollbackBackoffMs int `json:"rollback_backoff_ms,omitempty"`
	// SuperviseEveryMs is the supervisor poll interval (0 = default 100;
	// -1 disables the background loop — tests drive superviseOnce).
	SuperviseEveryMs int `json:"supervise_every_ms,omitempty"`
	// MaxFramesPerSec is the per-session ingest quota: monitor frames
	// beyond this rate are shed before they reach the engine (counted in
	// the supervisor's shed_frames, on top of the transport ring's
	// Stale() semantics). 0 = unlimited.
	MaxFramesPerSec int `json:"max_frames_per_sec,omitempty"`
	// Divergence overrides the engine's divergence-guard policy.
	Divergence *DivergenceConfig `json:"divergence,omitempty"`
}

// DivergenceConfig mirrors capes.DivergencePolicy for JSON configs;
// zero fields use the engine defaults, negative values disable the
// corresponding check (the guard's NaN-loss trip is always on).
type DivergenceConfig struct {
	LossExplodeFactor    float64 `json:"loss_explode_factor,omitempty"`
	MinSteps             int64   `json:"min_steps,omitempty"`
	MinPoints            int     `json:"min_points,omitempty"`
	RewardCollapseFactor float64 `json:"reward_collapse_factor,omitempty"`
	ProbeEverySteps      int64   `json:"probe_every_steps,omitempty"`
}

// capes maps the JSON block onto the engine's divergence policy.
func (dc *DivergenceConfig) capes() capes.DivergencePolicy {
	return capes.DivergencePolicy{
		LossExplodeFactor:    dc.LossExplodeFactor,
		MinSteps:             dc.MinSteps,
		MinPoints:            dc.MinPoints,
		RewardCollapseFactor: dc.RewardCollapseFactor,
		ProbeEverySteps:      dc.ProbeEverySteps,
	}
}

// ClusterConfig mirrors capes.ClusterConfig for JSON configs.
type ClusterConfig struct {
	// Role is "leader" or "follower".
	Role string `json:"role"`
	// Listen is the leader's gradient-plane TCP address.
	Listen string `json:"listen,omitempty"`
	// Leader is the leader address a follower dials.
	Leader string `json:"leader,omitempty"`
	// Rank is the follower's fixed, unique reduction rank (≥ 1).
	Rank int `json:"rank,omitempty"`
	// CollectTimeoutMs bounds the leader's per-step wait for follower
	// gradient frames (0 = engine default).
	CollectTimeoutMs int `json:"collect_timeout_ms,omitempty"`
	// SyncTimeoutMs bounds a follower's dial, sync and mean-gradient waits
	// (0 = engine default).
	SyncTimeoutMs int `json:"sync_timeout_ms,omitempty"`
}

// capes maps the JSON block onto the engine's cluster config.
func (cc *ClusterConfig) capes() capes.ClusterConfig {
	return capes.ClusterConfig{
		Role:           cc.Role,
		Listen:         cc.Listen,
		LeaderAddr:     cc.Leader,
		Rank:           cc.Rank,
		CollectTimeout: time.Duration(cc.CollectTimeoutMs) * time.Millisecond,
		SyncTimeout:    time.Duration(cc.SyncTimeoutMs) * time.Millisecond,
	}
}

// TunableConfig mirrors capes.Tunable for JSON configs.
type TunableConfig struct {
	Name    string  `json:"name"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Step    float64 `json:"step"`
	Default float64 `json:"default"`
}

// ObjectiveConfig selects the tuning objective (§3.2).
type ObjectiveConfig struct {
	// Type is "throughput" (default; per-client read+write PIs) or
	// "sum" (sum the frame entries listed in Indices).
	Type string `json:"type"`
	// ReadOffset/WriteOffset locate the throughput PIs inside each
	// client's vector (defaults 2 and 3, the storesim layout).
	ReadOffset  int `json:"read_offset,omitempty"`
	WriteOffset int `json:"write_offset,omitempty"`
	// Indices are the flat frame indices for type "sum".
	Indices []int `json:"indices,omitempty"`
}

// LoadConfig reads and validates a JSON config file.
func LoadConfig(path string) (Config, error) {
	var c Config
	buf, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("capesd: bad config %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return c, fmt.Errorf("capesd: %s: %w", path, err)
	}
	return c, nil
}

// Validate checks the whole config, including duplicate session names.
func (c *Config) Validate() error {
	if len(c.Sessions) == 0 {
		return fmt.Errorf("config has no sessions")
	}
	seen := map[string]bool{}
	seenDirs := map[string]string{}
	for i := range c.Sessions {
		if err := c.Sessions[i].Validate(); err != nil {
			return err
		}
		name := c.Sessions[i].Name
		if seen[name] {
			return fmt.Errorf("duplicate session name %q", name)
		}
		seen[name] = true
		if dir := c.Sessions[i].CheckpointDir; dir != "" {
			dir = filepath.Clean(dir)
			if owner, ok := seenDirs[dir]; ok {
				return fmt.Errorf("sessions %q and %q share checkpoint_dir %q", owner, name, dir)
			}
			seenDirs[dir] = name
		}
	}
	return nil
}

// Validate checks one session config.
func (sc *SessionConfig) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("session needs a name")
	}
	if strings.ContainsAny(sc.Name, "/ \t\n") {
		return fmt.Errorf("session name %q must be URL-safe (no slashes or spaces)", sc.Name)
	}
	if sc.Clients <= 0 {
		return fmt.Errorf("session %s: clients must be positive", sc.Name)
	}
	if sc.PIsPerClient < 0 || sc.ObsTicks < 0 {
		return fmt.Errorf("session %s: negative pis_per_client/obs_ticks", sc.Name)
	}
	if sc.LivenessTimeoutMs < 0 {
		return fmt.Errorf("session %s: negative liveness_timeout_ms", sc.Name)
	}
	if sc.TrainStartTicks < 0 || sc.TrainEvery < 0 || sc.MinibatchSize < 0 || sc.ReplayCapacity < 0 {
		return fmt.Errorf("session %s: negative hyperparameter override (train_start_ticks/train_every/minibatch_size/replay_capacity)", sc.Name)
	}
	if sc.HistoryCap < 0 {
		return fmt.Errorf("session %s: negative history_cap", sc.Name)
	}
	if sc.TickDeadlineMs < 0 || sc.MaxRollbacks < 0 || sc.RollbackBackoffMs < 0 || sc.MaxFramesPerSec < 0 {
		return fmt.Errorf("session %s: negative supervision knob (tick_deadline_ms/max_rollbacks/rollback_backoff_ms/max_frames_per_sec)", sc.Name)
	}
	if sc.SuperviseEveryMs < -1 {
		return fmt.Errorf("session %s: supervise_every_ms %d (want >= -1)", sc.Name, sc.SuperviseEveryMs)
	}
	if d := sc.Divergence; d != nil {
		if d.MinSteps < 0 || d.MinPoints < 0 {
			return fmt.Errorf("session %s: negative divergence min_steps/min_points", sc.Name)
		}
		if d.RewardCollapseFactor < 0 {
			return fmt.Errorf("session %s: negative divergence reward_collapse_factor", sc.Name)
		}
	}
	if cc := sc.Cluster; cc != nil {
		ecc := cc.capes()
		if err := ecc.Validate(); err != nil {
			return fmt.Errorf("session %s: %w", sc.Name, err)
		}
		if cc.CollectTimeoutMs < 0 || cc.SyncTimeoutMs < 0 {
			return fmt.Errorf("session %s: negative cluster timeout", sc.Name)
		}
	}
	// monitor_only + exploit together is valid: a pure-collection daemon
	// that neither trains nor acts.
	switch sc.RewardMode {
	case "", "delta", "absolute":
	default:
		return fmt.Errorf("session %s: reward_mode %q (want delta or absolute)", sc.Name, sc.RewardMode)
	}
	if o := sc.Objective; o != nil {
		switch o.Type {
		case "", "throughput":
		case "sum":
			if len(o.Indices) == 0 {
				return fmt.Errorf("session %s: objective type sum needs indices", sc.Name)
			}
		default:
			return fmt.Errorf("session %s: objective type %q (want throughput or sum)", sc.Name, o.Type)
		}
	}
	return nil
}

// withDefaults returns a copy with every optional field resolved and
// the checkpoint path normalized (so "a/" and "a" are one reservation).
func (sc SessionConfig) withDefaults() SessionConfig {
	if sc.Listen == "" {
		sc.Listen = "127.0.0.1:0"
	}
	if sc.CheckpointDir != "" {
		sc.CheckpointDir = filepath.Clean(sc.CheckpointDir)
	}
	if sc.PIsPerClient == 0 {
		sc.PIsPerClient = storesim.NumClientPIs
	}
	if sc.ObsTicks == 0 {
		sc.ObsTicks = 5
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.MaxRollbacks == 0 {
		sc.MaxRollbacks = 3
	}
	if sc.RollbackBackoffMs == 0 {
		sc.RollbackBackoffMs = 500
	}
	if sc.SuperviseEveryMs == 0 {
		sc.SuperviseEveryMs = 100
	}
	return sc
}

// engineConfig assembles the capes.Config for this session.
func (sc *SessionConfig) engineConfig() (capes.Config, error) {
	tunables := capes.LustreTunables()
	if len(sc.Tunables) > 0 {
		tunables = make([]capes.Tunable, len(sc.Tunables))
		for i, t := range sc.Tunables {
			tunables[i] = capes.Tunable{Name: t.Name, Min: t.Min, Max: t.Max, Step: t.Step, Default: t.Default}
		}
	}
	space, err := capes.NewActionSpace(tunables...)
	if err != nil {
		return capes.Config{}, fmt.Errorf("session %s: %w", sc.Name, err)
	}

	hyper := capes.DefaultHyperparameters()
	hyper.TicksPerObservation = sc.ObsTicks
	if sc.TrainStartTicks > 0 {
		hyper.TrainStartTicks = sc.TrainStartTicks
	}
	if sc.TrainEvery > 0 {
		hyper.TrainEvery = sc.TrainEvery
	}
	if sc.MinibatchSize > 0 {
		hyper.MinibatchSize = sc.MinibatchSize
	}
	if sc.ReplayCapacity > 0 {
		hyper.ReplayCapacity = sc.ReplayCapacity
	}

	// Offsets index into per-client PI vectors at runtime; reject
	// out-of-range values here rather than panicking in Tick (the
	// control plane would make that a remote crash of every session).
	if o := sc.Objective; o == nil || o.Type == "" || o.Type == "throughput" {
		readOff, writeOff := sc.throughputOffsets()
		if readOff < 0 || writeOff < 0 || readOff >= sc.PIsPerClient || writeOff >= sc.PIsPerClient {
			return capes.Config{}, fmt.Errorf("session %s: throughput offsets (%d,%d) outside the %d PIs per client",
				sc.Name, readOff, writeOff, sc.PIsPerClient)
		}
	}

	obj := sc.objective()
	mode := capes.RewardDelta
	if sc.RewardMode == "absolute" {
		mode = capes.RewardAbsolute
	}
	cfg := capes.Config{
		Hyper:        hyper,
		Space:        space,
		Objective:    obj,
		RewardMode:   mode,
		FrameWidth:   sc.Clients * sc.PIsPerClient,
		Seed:         sc.Seed,
		Training:     !sc.Exploit,
		Tuning:       !sc.MonitorOnly,
		HistoryEvery: sc.HistoryEvery,
		HistoryCap:   sc.HistoryCap,
	}
	if sc.Divergence != nil {
		d := sc.Divergence.capes()
		cfg.Divergence = &d
	}
	if sc.Cluster != nil {
		ecc := sc.Cluster.capes()
		cfg.Cluster = &ecc
	}
	return cfg, nil
}

// throughputOffsets resolves the read/write PI offsets: the storesim
// defaults (2, 3) unless the objective block sets either one — setting
// any offset means the whole pair is explicit, so a layout with a
// throughput PI at index 0 is expressible.
func (sc *SessionConfig) throughputOffsets() (readOff, writeOff int) {
	readOff, writeOff = 2, 3
	if o := sc.Objective; o != nil && (o.ReadOffset != 0 || o.WriteOffset != 0) {
		readOff, writeOff = o.ReadOffset, o.WriteOffset
	}
	return readOff, writeOff
}

func (sc *SessionConfig) objective() capes.Objective {
	o := sc.Objective
	if o == nil || o.Type == "" || o.Type == "throughput" {
		readOff, writeOff := sc.throughputOffsets()
		return capes.ThroughputObjective(sc.Clients, sc.PIsPerClient, readOff, writeOff)
	}
	return capes.SumIndices(o.Indices...)
}
