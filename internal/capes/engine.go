package capes

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"capes/internal/nn"
	"capes/internal/replay"
	"capes/internal/rl"
)

// Collector gathers one performance-indicator frame from the target
// system — the adapter "for collecting the observation from the target
// system" (§A.1). In-process deployments read the simulator directly;
// distributed deployments receive frames from Monitoring Agents.
//
// Collectors, Controllers, ActionHooks, Checkers and Objectives run
// inside Tick with the engine lock held: they must not call back into
// the engine (use the values they are handed instead).
type Collector func() (replay.Frame, error)

// Controller applies a parameter-value vector (aligned with the
// ActionSpace tunables) to the target system — the adapter "for setting
// the parameters to the target system". values is an engine-owned buffer
// that is valid only during the call: copy it to keep it.
type Controller func(values []float64) error

// ActionHook observes every successfully applied (non-NULL) action:
// the tick it happened on, the action id, and the resulting parameter
// vector. Session managers use it to broadcast parameter changes to
// Control Agents without re-entering the engine. values is an
// engine-owned buffer that is valid only during the call: copy it to
// keep it.
type ActionHook func(tick int64, action int, values []float64)

// Config assembles an Engine.
type Config struct {
	Hyper      Hyperparameters
	Space      *ActionSpace
	Objective  Objective
	RewardMode RewardMode
	Checker    ActionChecker // nil = NoopChecker
	FrameWidth int           // PIs per sampling tick across all nodes
	Seed       int64

	// Training and Tuning can be toggled independently (§3.3: "we can
	// choose to do solely monitoring or training on demand").
	Training bool
	Tuning   bool

	// Cluster enables data-parallel cluster training (see cluster.go):
	// a leader engine aggregates gradient frames from follower engines
	// in fixed rank order and broadcasts the post-step parameters back.
	// Nil (or an empty Role) runs the engine standalone. The cluster
	// schedule is strictly synchronous by design.
	Cluster *ClusterConfig

	// HistoryEvery samples one training-telemetry HistoryPoint per this
	// many ticks (0 = every 10 ticks; negative disables recording). The
	// reward field carries the objective of the latest collected frame,
	// so samples landing between sampling ticks reuse the last value.
	HistoryEvery int64
	// HistoryCap bounds the telemetry ring (0 = 1024 points).
	HistoryCap int

	// Divergence tunes the divergence guard (see divergence.go). Nil
	// applies the defaults — the guard itself is always on: a non-finite
	// training fault trips it regardless of policy knobs.
	Divergence *DivergencePolicy
}

// EnginePrecision is the numeric element type of the deployed DQN path:
// float32. The train step is memory-bandwidth-bound against the flat
// parameter working set, so halving the element size is the dominant
// latency lever (see PERF.md). It is the only precision with SIMD
// kernels: float64 runs the generic Go loops in internal/tensor and
// internal/nn as the reference the precision tests compare against. A
// checkpoint is precision-tagged and restores only at the precision it
// was saved at, so the engine loads float32 checkpoints only.
type EnginePrecision = float32

// Engine is the DRL Engine plus the Interface-Daemon bookkeeping for an
// in-process deployment: it relays frames into the Replay DB, selects
// and applies actions, and runs training steps, all on the shared
// virtual clock.
//
// Engine is safe for concurrent use: Tick, Stats, SaveSession and the
// setters serialize on an internal mutex, so a session manager may
// snapshot or checkpoint an engine while agent goroutines drive ticks.
// The DB() and Agent() escape hatches bypass that mutex and are only
// safe when nothing else is ticking the engine.
type Engine struct {
	mu      sync.Mutex
	stopped bool

	cfg   Config
	db    *replay.DB
	agent *rl.Agent[EnginePrecision]
	rng   *rand.Rand

	collector  Collector
	controller Controller
	rewardFn   replay.RewardFunc
	checker    ActionChecker

	// current is the applied parameter vector; proposed is the buffer
	// each action tick steps it into, and the two swap when the
	// controller accepts — the action path allocates nothing.
	current  []float64
	proposed []float64
	exploit  bool       // greedy-only mode (evaluation phase)
	onAction ActionHook // optional observer of applied actions

	missedSamples int64
	nonFinitePIs  int64
	vetoes        int64
	trainErrors   int64
	lastAction    int
	actionCounts  []int64 // per action id

	// The applied-action history: a ring of records whose Values share
	// one preallocated arena (see newActionRing), oldest at
	// historyStart, historyLen of them valid.
	history      []ActionRecord
	historyStart int
	historyLen   int

	// Training telemetry: the bounded time-series ring behind the
	// /history and /chart endpoints, sampled every histEvery ticks.
	// lastReward caches the objective of the newest collected frame so
	// between-sample ticks and collector errors reuse it.
	hist       *History
	histEvery  int64
	lastReward float64

	// lastPI holds each PI's newest finite value, and piScratch the
	// frame a collected frame with a NaN or ±Inf PI is repaired into
	// (see finiteFrameLocked).
	lastPI    []float64
	piScratch replay.Frame

	// Hot-path scratch: the reusable minibatch every train tick samples
	// into, and the observation buffer the action path fills. Both are
	// at the engine precision, so frames convert float64→float32 exactly
	// once as they are copied in — no float64 temporaries between the
	// Replay DB and the network.
	batch      replay.Batch[EnginePrecision]
	obsScratch []EnginePrecision

	// Divergence guard (see divergence.go): div is the resolved policy,
	// divGate the tick path's trip flag (owned by e.mu), and the
	// divMu-guarded mirror below is what Divergence() reads so a
	// supervisor can poll the trip state without touching e.mu — even
	// while a tick is wedged or a checkpoint holds the engine lock.
	div        DivergencePolicy
	divGate    bool
	divMu      sync.Mutex
	divTripped bool
	divReason  string
	divTick    int64
	divTrips   int64

	// Reward-collapse tracker and the probe schedule cursor.
	rewardEWMA    float64
	rewardSeeded  bool
	rewardPeak    float64
	lastProbeStep int64

	// faults is the deterministic fault hook (nil outside tests and the
	// supervisor chaos suite; see faults.go).
	faults *FaultInjector

	// Cluster-mode state (see cluster.go): exactly one of cluL/cluF is
	// non-nil in cluster mode.
	cluL *clusterLeader
	cluF *clusterFollower
}

// ActionRecord is one applied action (kept in a bounded ring for
// operator inspection — "which knobs has CAPES been turning?").
type ActionRecord struct {
	Tick   int64
	Action int
	Values []float64
}

// NewEngine builds an engine. collector must not be nil; controller may
// be nil only when cfg.Tuning is false.
func NewEngine(cfg Config, collector Collector, controller Controller) (*Engine, error) {
	return newEngine(cfg, collector, controller, false)
}

// newEngine is NewEngine; restoring builds the engine BootEngine is
// about to Restore a checkpoint into, without the network Restore
// replaces. Its random source is moved past the Xavier draws that
// network would have taken, so once restored the engine is bit for bit
// the one NewEngine followed by Restore gives. Until a Restore succeeds
// such an engine has no network, and Restore and Stop are the only calls
// it takes. A cluster engine is built in full: its leader serves the
// network from the start.
func newEngine(cfg Config, collector Collector, controller Controller, restoring bool) (*Engine, error) {
	if err := cfg.Hyper.Validate(); err != nil {
		return nil, err
	}
	if cfg.Space == nil {
		return nil, fmt.Errorf("capes: Config.Space is required")
	}
	if cfg.Objective == nil {
		return nil, fmt.Errorf("capes: Config.Objective is required")
	}
	if cfg.FrameWidth <= 0 {
		return nil, fmt.Errorf("capes: Config.FrameWidth must be positive")
	}
	if collector == nil {
		return nil, fmt.Errorf("capes: collector is required")
	}
	clustered := cfg.Cluster != nil && cfg.Cluster.Role != ""
	if clustered {
		if err := cfg.Cluster.Validate(); err != nil {
			return nil, err
		}
	}
	if controller == nil {
		if cfg.Tuning {
			return nil, fmt.Errorf("capes: controller is required when tuning")
		}
		controller = func([]float64) error { return nil }
	}
	db, err := replay.New(replay.Config{
		FrameWidth:       cfg.FrameWidth,
		StackTicks:       cfg.Hyper.TicksPerObservation,
		MissingTolerance: cfg.Hyper.MissingTolerance,
		Capacity:         cfg.Hyper.ReplayCapacity,
	})
	if err != nil {
		return nil, err
	}
	src := newEngineSource(cfg.Seed)
	rng := rand.New(src)
	agentCfg, eps := agentConfig(cfg.Hyper)
	var agent *rl.Agent[EnginePrecision]
	if restoring && !clustered {
		// Refuse what NewAgent would refuse, and draw what it would draw.
		if err := agentCfg.Validate(); err != nil {
			return nil, err
		}
		if err := eps.Validate(); err != nil {
			return nil, err
		}
		src.SkipFloat64(nn.CAPESNetworkDraws(db.ObservationWidth(), cfg.Space.NumActions()))
	} else if agent, err = rl.NewAgent[EnginePrecision](agentCfg, eps, db.ObservationWidth(), cfg.Space.NumActions(), rng); err != nil {
		return nil, err
	}
	checker := cfg.Checker
	if checker == nil {
		checker = NoopChecker
	}
	histEvery := cfg.HistoryEvery
	if histEvery == 0 {
		histEvery = 10
	}
	histCap := cfg.HistoryCap
	if histCap <= 0 {
		histCap = 1024
	}
	div := DivergencePolicy{}
	if cfg.Divergence != nil {
		div = *cfg.Divergence
	}
	e := &Engine{
		div:          div.withDefaults(),
		cfg:          cfg,
		db:           db,
		agent:        agent,
		rng:          rng,
		collector:    collector,
		controller:   controller,
		rewardFn:     RewardFunc(cfg.Objective, cfg.RewardMode),
		checker:      checker,
		current:      cfg.Space.Defaults(),
		proposed:     make([]float64, len(cfg.Space.Tunables)),
		lastAction:   NullAction,
		actionCounts: make([]int64, cfg.Space.NumActions()),
		history:      newActionRing(256, len(cfg.Space.Tunables)),
		hist:         newHistory(histCap),
		histEvery:    histEvery,
		lastPI:       make([]float64, cfg.FrameWidth),
		piScratch:    make(replay.Frame, cfg.FrameWidth),
		obsScratch:   make([]EnginePrecision, db.ObservationWidth()),
	}
	if clustered {
		if err := e.startCluster(cfg.Cluster.withDefaults()); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// agentConfig is the learner Table 1's hyperparameters describe.
func agentConfig(h Hyperparameters) (rl.Config, *rl.EpsilonSchedule) {
	return rl.Config{
			Gamma:         h.DiscountRate,
			LearningRate:  h.AdamLearningRate,
			TargetUpdateα: h.TargetUpdateRate,
			MinibatchSize: h.MinibatchSize,
			GradientClip:  h.GradientClip,
		}, &rl.EpsilonSchedule{
			Initial:     h.EpsilonInitial,
			Final:       h.EpsilonFinal,
			AnnealTicks: h.ExplorationPeriod,
			BumpValue:   h.EpsilonBump,
		}
}

// Tick implements sim.Ticker: one sample, one action (when tuning) and
// one training step (when due). After Stop, Tick is a no-op so
// in-flight agent callbacks drain harmlessly.
func (e *Engine) Tick(now int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	if e.faults != nil {
		// Deterministic fault hook (tests only): may panic or block.
		e.faults.beforeTick(now)
	}
	h := &e.cfg.Hyper

	// Sampling tick: collect a frame and relay it to the Replay DB.
	frame, err := e.collector()
	if err != nil {
		e.missedSamples++
	} else {
		frame = e.finiteFrameLocked(frame)
		e.lastReward = e.cfg.Objective(frame)
		e.noteRewardLocked(e.lastReward)
		if err := e.db.PutFrame(now, frame); err != nil {
			e.missedSamples++
		}
	}

	// Action tick. A tripped divergence guard quarantines the policy:
	// no actions leave a diverged network, and no training compounds the
	// excursion, until the supervisor rolls the session back (or an
	// operator clears the trip). Collection above keeps running.
	if e.cfg.Tuning && !e.divGate {
		action := e.chooseAction(now)
		proposed := e.cfg.Space.Apply(e.proposed, action, e.current)
		if err := e.checker(proposed); err != nil {
			e.vetoes++
			action = NullAction
			proposed = e.current
		}
		e.db.PutAction(now, action)
		e.lastAction = action
		e.actionCounts[action]++
		if action != NullAction {
			if err := e.controller(proposed); err == nil {
				e.current, e.proposed = proposed, e.current
				e.recordAction(now, action)
				if e.onAction != nil {
					e.onAction(now, action, e.current)
				}
			}
		}
	}

	// Training step. ConstructMinibatchInto failing just means not
	// enough data yet; either way the telemetry sample below still runs.
	if e.cfg.Training && !e.divGate && now >= h.TrainStartTicks && now%h.TrainEvery == 0 {
		if e.cluL != nil {
			e.clusterLeaderTick(now)
			e.maybeProbeLocked(e.agent.Steps(), now)
		} else if e.cluF != nil {
			e.clusterFollowerTick(now)
			e.maybeProbeLocked(e.agent.Steps(), now)
		} else if err := replay.ConstructMinibatchInto(e.db, e.rng, h.MinibatchSize, e.rewardFn, &e.batch); err == nil {
			if e.faults != nil && e.faults.takePoison(e.agent.Steps()+1) {
				e.poisonParamsLocked()
			}
			if _, err := e.agent.TrainStep(&e.batch); err != nil {
				e.trainErrors++
				e.noteTrainFaultLocked(err, now)
			} else {
				e.maybeProbeLocked(e.agent.Steps(), now)
			}
		}
	}

	// Telemetry sample: one HistoryPoint per histEvery ticks, recorded
	// last so this tick's training step is already reflected. Record is
	// alloc-free, so the tick path stays 0 allocs/op.
	if e.histEvery > 0 && now%e.histEvery == 0 {
		random, calc := e.agent.ActionCounts()
		eps := 0.0
		if !e.exploit {
			eps = e.agent.Epsilon.At(now)
		}
		steps, loss := e.agent.Steps(), e.agent.SmoothedLoss()
		e.hist.Record(HistoryPoint{
			Tick:          now,
			Reward:        e.lastReward,
			Loss:          loss,
			TDErrEMA:      e.agent.TDErrorEMA(),
			Epsilon:       eps,
			TrainSteps:    steps,
			RandomActions: random,
			CalcActions:   calc,
		})
		// The windowed divergence checks ride the telemetry cadence and
		// read exactly the loss/steps recorded above; alloc-free.
		e.checkDivergenceLocked(steps, loss, now)
	}
}

// chooseAction applies the policy: random while the DB cannot form an
// observation (cold start), otherwise ε-greedy (or pure greedy in
// exploit mode). The observation is assembled straight into the
// engine-precision scratch buffer — one conversion per value, no
// allocation, no float64 staging.
func (e *Engine) chooseAction(now int64) int {
	if err := replay.ObservationInto(e.db, e.obsScratch, now); err != nil {
		return e.rng.Intn(e.cfg.Space.NumActions())
	}
	if e.exploit {
		return e.agent.GreedyAction(e.obsScratch)
	}
	return e.agent.SelectAction(e.obsScratch, now)
}

// newActionRing returns n action records whose Values are width-long
// windows of one shared arena.
func newActionRing(n, width int) []ActionRecord {
	vals := make([]float64, n*width)
	ring := make([]ActionRecord, n)
	for i := range ring {
		ring[i].Values = vals[i*width : (i+1)*width : (i+1)*width]
	}
	return ring
}

// recordAction writes the applied action and e.current into the history
// ring, overwriting the oldest record once it is full. Alloc-free.
func (e *Engine) recordAction(now int64, action int) {
	rec := &e.history[(e.historyStart+e.historyLen)%len(e.history)]
	if e.historyLen < len(e.history) {
		e.historyLen++
	} else {
		e.historyStart = (e.historyStart + 1) % len(e.history)
	}
	rec.Tick, rec.Action = now, action
	copy(rec.Values, e.current)
}

// ActionDistribution returns how often each action id was chosen,
// indexed by action id (NULL included).
func (e *Engine) ActionDistribution() []int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int64(nil), e.actionCounts...)
}

// NotifyWorkloadChange bumps ε to the configured bump value (§3.6): "
// Whenever a new workload is started on the system, the Interface Daemon
// notifies the DRL Engine to bump up ε".
func (e *Engine) NotifyWorkloadChange(now int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.agent.Epsilon.Bump(now)
}

// SetTraining toggles training steps.
func (e *Engine) SetTraining(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg.Training = on
}

// SetTuning toggles action issuance.
func (e *Engine) SetTuning(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg.Tuning = on
}

// SetExploit switches between ε-greedy (false; training sessions) and
// pure greedy (true; measured tuning sessions).
func (e *Engine) SetExploit(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.exploit = on
}

// SetActionHook installs an observer invoked after every applied action
// (see ActionHook). Pass nil to remove it.
func (e *Engine) SetActionHook(h ActionHook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onAction = h
}

// Stop drains the engine: every subsequent Tick is a no-op, so agent
// callbacks still in flight cannot race a final checkpoint or teardown.
// Stop is idempotent.
func (e *Engine) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closeClusterLocked()
	e.stopped = true
}

// CurrentValues returns a copy of the parameter vector CAPES believes is
// applied.
func (e *Engine) CurrentValues() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]float64(nil), e.current...)
}

// SetCurrentValues overrides the engine's view of the applied parameters
// (used when the operator resets the target system between sessions).
func (e *Engine) SetCurrentValues(vals []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.setCurrentValues(vals)
}

// setCurrentValues is SetCurrentValues with e.mu held.
func (e *Engine) setCurrentValues(vals []float64) error {
	if len(vals) != len(e.cfg.Space.Tunables) {
		return fmt.Errorf("capes: got %d values for %d tunables", len(vals), len(e.cfg.Space.Tunables))
	}
	e.current = append([]float64(nil), vals...)
	return nil
}

// DB exposes the Replay Database (read-mostly; the Interface Daemon path
// is the writer).
func (e *Engine) DB() *replay.DB { return e.db }

// Agent exposes the Q-learning agent (at the engine precision).
func (e *Engine) Agent() *rl.Agent[EnginePrecision] { return e.agent }

// History returns a copy of the retained training-telemetry window,
// oldest first.
func (e *Engine) History() []HistoryPoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hist.Snapshot()
}

// HistorySince returns a copy of every telemetry point with
// Tick > cursor, oldest first — the /history endpoint's cursor read.
// Pass a negative cursor for the full retained window.
func (e *Engine) HistorySince(cursor int64) []HistoryPoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hist.Since(cursor)
}

// finiteFrameLocked returns the collected frame with each PI that is not
// finite at the replay ring's float32 precision — NaN, ±Inf, or beyond
// ±MaxFloat32 — replaced by that PI's last finite value (zero before the
// first), counting each. A non-finite reading is not a change, as §3.3's
// differential messages keep an unchanged PI's value: one bad reading on
// a node must not reach the replay ring, the reward or a minibatch. A
// frame of finite values is returned as it is, and nothing allocates.
func (e *Engine) finiteFrameLocked(frame replay.Frame) replay.Frame {
	if len(frame) != len(e.lastPI) {
		return frame // PutFrame refuses the width
	}
	out, repaired := frame, false
	for j, v := range frame {
		if math.Abs(v) <= math.MaxFloat32 { // false for NaN
			e.lastPI[j] = v
			continue
		}
		if !repaired { // the collector's frame is never written
			out, repaired = e.piScratch, true
			copy(out, frame)
		}
		out[j] = e.lastPI[j]
		e.nonFinitePIs++
	}
	return out
}

// Stats summarizes engine health counters plus the newest telemetry
// sample (LastReward/SmoothedLoss/TDErrorEMA/Epsilon are zero until the
// first HistoryPoint lands).
type Stats struct {
	TrainSteps    int64
	MissedSamples int64
	NonFinitePIs  int64 // NaN, ±Inf or out-of-float32-range PIs replaced by the PI's last finite value
	Vetoes        int64
	TrainErrors   int64
	ReplayRecords int
	ReplayBytes   int64 // resident bytes of the replay ring (arena accounting)
	RandomActions int64
	CalcActions   int64

	HistoryPoints int     // telemetry samples retained in the ring
	LastReward    float64 // objective of the newest sampled frame
	SmoothedLoss  float64 // EWMA prediction error at the newest sample
	TDErrorEMA    float64 // EWMA RMS TD error at the newest sample
	Epsilon       float64 // exploration rate at the newest sample

	// Divergence-guard state (see divergence.go). Diverged mirrors the
	// trip flag at snapshot time; DivergenceTrips counts lifetime trips
	// (clears and rollbacks do not reset it).
	Diverged         bool
	DivergenceReason string
	DivergenceTrips  int64

	// Cluster health (see cluster.go); nil outside cluster mode.
	Cluster *ClusterStats
}

// Stats returns the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	random, calc := e.agent.ActionCounts()
	last := e.hist.Last()
	s := Stats{
		TrainSteps:    e.agent.Steps(),
		MissedSamples: e.missedSamples,
		NonFinitePIs:  e.nonFinitePIs,
		Vetoes:        e.vetoes,
		TrainErrors:   e.trainErrors,
		ReplayRecords: e.db.Len(),
		ReplayBytes:   e.db.MemoryBytes(),
		RandomActions: random,
		CalcActions:   calc,
		HistoryPoints: e.hist.Len(),
		LastReward:    last.Reward,
		SmoothedLoss:  last.Loss,
		TDErrorEMA:    last.TDErrEMA,
		Epsilon:       last.Epsilon,
	}
	e.divMu.Lock()
	s.Diverged = e.divTripped
	s.DivergenceReason = e.divReason
	s.DivergenceTrips = e.divTrips
	e.divMu.Unlock()
	if e.cluL != nil {
		cs := e.cluL.statsSnapshot()
		s.Cluster = &cs
	} else if e.cluF != nil {
		cs := e.cluF.stats
		cs.Epoch = e.cluF.epoch
		cs.Synced = e.cluF.conn != nil && e.cluF.synced
		s.Cluster = &cs
	}
	return s
}
