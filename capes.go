// Package capes is the public API of this CAPES reproduction — the
// deep-reinforcement-learning parameter tuner of
//
//	Li, Chang, Bel, Miller, Long. "CAPES: Unsupervised Storage
//	Performance Tuning Using Neural Network-Based Deep Reinforcement
//	Learning", SC '17.
//
// The package re-exports the core library (internal/capes), the
// simulated Lustre-like evaluation cluster (internal/storesim), the
// Filebench-equivalent workload generators (internal/workload) and the
// experiment harness (internal/experiment) behind one import path.
//
// # Quick start
//
// Attach CAPES to a target system by providing three things: the list of
// tunable parameters, a Collector that samples performance indicators,
// and a Controller that applies parameter values (see
// ExampleNewEngine_custom for a minimal adapter, or
// ExampleNewEnv_quickstart for the full simulated cluster):
//
//	space, _ := capes.NewActionSpace(capes.LustreTunables()...)
//	cfg := capes.Config{
//		Hyper:      capes.DefaultHyperparameters(),
//		Space:      space,
//		Objective:  myObjective,
//		FrameWidth: nIndicators,
//		Training:   true,
//		Tuning:     true,
//	}
//	eng, _ := capes.NewEngine(cfg, myCollector, myController)
//	for tick := int64(1); ; tick++ {
//		eng.Tick(tick) // once per second
//	}
package capes

import (
	icapes "capes/internal/capes"
	"capes/internal/experiment"
	"capes/internal/replay"
	"capes/internal/storesim"
	"capes/internal/workload"
)

// Core tuner types (see internal/capes for full documentation).
type (
	// Hyperparameters mirrors Table 1 of the paper.
	Hyperparameters = icapes.Hyperparameters
	// Tunable describes one parameter with range and step (§3.7).
	Tunable = icapes.Tunable
	// ActionSpace maps action ids to parameter adjustments (2k+1 actions).
	ActionSpace = icapes.ActionSpace
	// Objective maps a PI frame to the scalar being maximized (§3.2).
	Objective = icapes.Objective
	// RewardMode selects delta vs absolute reward derivation.
	RewardMode = icapes.RewardMode
	// ActionChecker vetoes egregiously bad actions (§3.7).
	ActionChecker = icapes.ActionChecker
	// Collector samples one frame of performance indicators.
	Collector = icapes.Collector
	// Controller applies a parameter-value vector to the target system.
	Controller = icapes.Controller
	// ActionHook observes applied actions (tick, id, values).
	ActionHook = icapes.ActionHook
	// Config assembles an Engine.
	Config = icapes.Config
	// Engine is the DRL engine + Interface-Daemon bookkeeping.
	Engine = icapes.Engine
	// Stats reports engine health counters.
	Stats = icapes.Stats
	// Frame is one sampling tick's flattened indicator vector.
	Frame = replay.Frame
)

// Reward modes.
const (
	// RewardDelta is objective(s_{t+1}) − objective(s_t) (paper default).
	RewardDelta = icapes.RewardDelta
	// RewardAbsolute is objective(s_{t+1}).
	RewardAbsolute = icapes.RewardAbsolute
)

// NullAction is the action id that changes nothing.
const NullAction = icapes.NullAction

// ErrNoSession reports a checkpoint directory with no saved session —
// RestoreSession errors wrapping it mean "first boot", anything else
// means a corrupt or mismatched checkpoint.
var ErrNoSession = icapes.ErrNoSession

// Core constructors and helpers.
var (
	// DefaultHyperparameters returns Table 1's values.
	DefaultHyperparameters = icapes.DefaultHyperparameters
	// NewActionSpace validates tunables and builds the action space.
	NewActionSpace = icapes.NewActionSpace
	// LustreTunables returns the evaluation's two tunables.
	LustreTunables = icapes.LustreTunables
	// NewEngine builds a tuning engine from a Config and adapters.
	NewEngine = icapes.NewEngine
	// SumIndices builds an Objective summing selected frame entries.
	SumIndices = icapes.SumIndices
	// ThroughputObjective builds the evaluation's aggregate-throughput objective.
	ThroughputObjective = icapes.ThroughputObjective
	// WeightedObjective combines objectives (multi-objective tuning).
	WeightedObjective = icapes.WeightedObjective
	// NoopChecker accepts every action.
	NoopChecker = icapes.NoopChecker
	// RangeChecker vetoes out-of-range parameter vectors.
	RangeChecker = icapes.RangeChecker
	// MinimumChecker vetoes values below a safe minimum.
	MinimumChecker = icapes.MinimumChecker
	// ChainCheckers composes checkers.
	ChainCheckers = icapes.ChainCheckers
)

// Simulated evaluation substrate.
type (
	// Cluster is the simulated Lustre-like target system of §4.2.
	Cluster = storesim.Cluster
	// ClusterParams configures the simulated cluster.
	ClusterParams = storesim.Params
	// WorkloadGenerator produces per-tick offered load.
	WorkloadGenerator = workload.Generator
)

// Simulator constructors.
var (
	// DefaultClusterParams returns the paper's 5-client/4-server rig.
	DefaultClusterParams = storesim.DefaultParams
	// NewCluster builds a simulated cluster running a workload.
	NewCluster = storesim.New
	// NewRandRW builds the Figure 2 random read/write workload.
	NewRandRW = workload.NewRandRW
	// NewFileserver builds the Filebench file-server workload.
	NewFileserver = workload.NewFileserver
	// NewSeqWrite builds the sequential-write workload.
	NewSeqWrite = workload.NewSeqWrite
	// NewSwitching builds a phase-switching workload schedule.
	NewSwitching = workload.NewSwitching
)

// NumClientPIs is the number of performance indicators per client
// exposed by the simulated cluster.
const NumClientPIs = storesim.NumClientPIs

// Experiment harness.
type (
	// ExperimentOptions configures evaluation runs (scale, cluster size).
	ExperimentOptions = experiment.Options
	// Env is one assembled cluster+CAPES evaluation environment.
	Env = experiment.Env
)

// Experiment constructors.
var (
	// DefaultExperimentOptions returns the CI-scale configuration.
	DefaultExperimentOptions = experiment.DefaultOptions
	// PaperExperimentOptions returns the full Table 1 scale.
	PaperExperimentOptions = experiment.PaperOptions
	// NewEnv assembles cluster, engine and clock for a workload.
	NewEnv = experiment.NewEnv
)
