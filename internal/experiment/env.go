// Package experiment assembles the full evaluation rig of §4: the
// simulated Lustre cluster (internal/storesim), the Filebench-equivalent
// workloads (internal/workload) and CAPES itself (internal/capes) on one
// virtual clock, plus a runner per paper table/figure. All durations are
// expressed at paper scale and multiplied by Options.Scale, so the same
// code runs the full 12/24-hour sessions or CI-sized replicas.
package experiment

import (
	"fmt"

	"capes/internal/capes"
	"capes/internal/disk"
	"capes/internal/replay"
	"capes/internal/sim"
	"capes/internal/storesim"
	"capes/internal/workload"
)

// Options configures an evaluation environment.
type Options struct {
	// Scale multiplies every session duration (1.0 = the paper's
	// wall-clock schedule; the default bench scale is 0.05).
	Scale float64
	// Clients and Servers size the cluster (paper: 5 and 4).
	Clients, Servers int
	// TicksPerObservation is the observation stack depth. The paper uses
	// 10; the default bench configuration uses 5 to fit a single-core
	// host.
	TicksPerObservation int
	// TrainEvery runs one SGD step per this many ticks (paper: the GPU
	// trainer ran continuously ≈ every tick).
	TrainEvery int64
	// Seed drives all randomness.
	Seed int64
	// ServiceNoise overrides the cluster's service-rate noise (<0 keeps
	// the storesim default).
	ServiceNoise float64
	// IncludeServerPIs appends the per-server indicators to every frame
	// (§6 future work: monitoring server nodes in addition to clients).
	IncludeServerPIs bool
	// PerOSCPIs switches to the paper's per-OSC observation layout
	// (clients × servers × 10 indicators instead of aggregated
	// per-client vectors). Takes precedence over IncludeServerPIs.
	PerOSCPIs bool
	// Disk overrides the storage-device profile (nil keeps the paper's
	// HDD); used by the SSD negative control.
	Disk *disk.Params
	// RateFloor is the lowest I/O rate limit the tuner may set (the
	// §A.4 operator guard; per-system knowledge). 0 picks 2000 req/s,
	// calibrated to the HDD rig; faster substrates need a higher floor.
	RateFloor float64
	// Hyper, when non-nil, replaces the engine hyperparameters verbatim
	// (durations must already be scaled); used by the grid search. The
	// TicksPerObservation/TrainEvery options and the Scale-resolved
	// learning rate and discount rate are ignored in that case.
	Hyper *capes.Hyperparameters
	// PaperObsWidth overrides the observation width used for the Table 2
	// paper-shape measurements (train-step timing, model size). 0 keeps
	// the paper's 1760 (44 PIs × 4 OSCs × 10 ticks); the test suite's
	// `go test -short` mode shrinks it so CI stays fast.
	PaperObsWidth int
}

// DefaultOptions returns the CI-scale evaluation configuration.
func DefaultOptions() Options {
	return Options{
		Scale:               0.05,
		Clients:             5,
		Servers:             4,
		TicksPerObservation: 5,
		TrainEvery:          1,
		Seed:                1,
		ServiceNoise:        -1,
	}
}

// PaperOptions returns the full-scale configuration (Table 1 faithful).
func PaperOptions() Options {
	o := DefaultOptions()
	o.Scale = 1.0
	o.TicksPerObservation = 10
	return o
}

func (o Options) validate() error {
	if o.Scale <= 0 {
		return fmt.Errorf("experiment: Scale must be positive")
	}
	if o.Clients <= 0 || o.Servers <= 0 {
		return fmt.Errorf("experiment: cluster must have clients and servers")
	}
	if o.TicksPerObservation <= 0 {
		return fmt.Errorf("experiment: TicksPerObservation must be positive")
	}
	if o.TrainEvery <= 0 {
		return fmt.Errorf("experiment: TrainEvery must be positive")
	}
	return nil
}

// Ticks converts a paper-scale duration in hours into scaled ticks.
func (o Options) Ticks(hours float64) int64 {
	t := int64(hours * 3600 * o.Scale)
	if t < 1 {
		t = 1
	}
	return t
}

// learningRate resolves the effective Adam learning rate: the paper's
// 1e-4 at Scale 1 and proportionally larger for shortened sessions
// (capped at 1e-3) so the optimizer sees a comparable total amount of
// learning.
func (o Options) learningRate() float64 {
	lr := 1e-4 / o.Scale
	if lr > 1e-3 {
		lr = 1e-3
	}
	return lr
}

// gamma resolves the effective discount rate: the paper's 0.99 at full
// scale and 0.9 for shortened sessions (the delta reward is already
// shaped, so a shorter bootstrap horizon preserves the optimal policy
// while cutting target variance).
func (o Options) gamma() float64 {
	if o.Scale >= 0.5 {
		return 0.99
	}
	return 0.9
}

// windowStep resolves the congestion-window tuning step: 8 at reduced
// scale, 4 at full scale (shorter sessions need fewer actions to
// traverse the range).
func (o Options) windowStep() float64 {
	if o.Scale >= 0.5 {
		return 4
	}
	return 8
}

// doubleDQN resolves whether the Double-DQN target rule is used: on for
// scaled sessions, where it curbs the maximization bias that short
// noisy sessions amplify.
func (o Options) doubleDQN() bool {
	return o.Scale < 0.5
}

// historyCap is the engine's telemetry ring size in every environment.
const historyCap = 1024

// historyEvery resolves the telemetry cadence: the engine default of one
// sample per 10 ticks, stretched just enough that a whole 12-hour
// training session (Figure 5's loss curve) fits in the ring at any
// Scale.
func (o Options) historyEvery() int64 {
	every := (o.Ticks(12) + historyCap - 1) / historyCap
	if every < 10 {
		every = 10
	}
	return every
}

// Env is one assembled evaluation environment.
type Env struct {
	Opts    Options
	Cluster *storesim.Cluster
	Engine  *capes.Engine
	Loop    *sim.Loop
	Gen     workload.Generator
}

// NewEnv builds the cluster, CAPES engine and tick loop for a workload.
func NewEnv(o Options, gen workload.Generator) (*Env, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	cp := storesim.DefaultParams()
	cp.Clients = o.Clients
	cp.Servers = o.Servers
	cp.Seed = o.Seed
	if o.ServiceNoise >= 0 {
		cp.ServiceNoise = o.ServiceNoise
	}
	if o.Disk != nil {
		cp.Disk = *o.Disk
	}
	cluster, err := storesim.New(cp, gen)
	if err != nil {
		return nil, err
	}

	hyper := capes.DefaultHyperparameters().Scaled(o.Scale)
	hyper.TicksPerObservation = o.TicksPerObservation
	hyper.TrainEvery = o.TrainEvery
	hyper.AdamLearningRate = o.learningRate()
	hyper.DiscountRate = o.gamma()
	if o.Hyper != nil {
		hyper = *o.Hyper
	}

	tunables := capes.LustreTunables()
	// Align tunable ranges with the simulated cluster's valid ranges.
	tunables[0].Min, tunables[0].Max, tunables[0].Default = cp.WindowMin, cp.WindowMax, cp.WindowDefault
	tunables[0].Step = o.windowStep()
	// The rate-limit tunable keeps the §A.4 operator-knowledge guard:
	// values low enough to strangle a client (the cluster accepts down
	// to RateMin) are excluded from the *tuning* range, exactly like the
	// paper excludes max_rpcs_in_flight below nine on its rig.
	rateFloor := o.RateFloor
	if rateFloor <= 0 {
		rateFloor = 2000
	}
	if rateFloor < cp.RateMin {
		rateFloor = cp.RateMin
	}
	tunables[1].Min, tunables[1].Max, tunables[1].Default = rateFloor, cp.RateMax, cp.RateDefault
	space, err := capes.NewActionSpace(tunables...)
	if err != nil {
		return nil, err
	}

	// Objective: aggregate read+write throughput summed over clients
	// (PIs 2 and 3 of each client), scaled to O(1) for the optimizer.
	obj := capes.ThroughputObjective(o.Clients, storesim.NumClientPIs, 2, 3)
	scaled := capes.Objective(func(f replay.Frame) float64 { return obj(f) * 50 })

	frameWidth := cluster.FrameWidth()
	collector := func() (replay.Frame, error) { return cluster.Frame(nil), nil }
	switch {
	case o.PerOSCPIs:
		frameWidth = cluster.PerOSCFrameWidth()
		collector = func() (replay.Frame, error) { return cluster.PerOSCFrame(nil), nil }
		// Per-OSC layout: one block of NumOSCPIs per (client, server)
		// pair, throughput at the same offsets within each block.
		oscObj := capes.ThroughputObjective(o.Clients*o.Servers, storesim.NumOSCPIs, 2, 3)
		scaled = capes.Objective(func(f replay.Frame) float64 { return oscObj(f) * 50 })
	case o.IncludeServerPIs:
		frameWidth = cluster.FullFrameWidth()
		collector = func() (replay.Frame, error) { return cluster.FullFrame(nil), nil }
	}
	cfg := capes.Config{
		Hyper:        hyper,
		Space:        space,
		Objective:    scaled,
		RewardMode:   capes.RewardDelta,
		FrameWidth:   frameWidth,
		Seed:         o.Seed + 7919,
		Training:     true,
		Tuning:       true,
		HistoryEvery: o.historyEvery(),
		HistoryCap:   historyCap,
	}
	eng, err := capes.NewEngine(cfg, collector,
		func(vals []float64) error {
			cluster.SetAllWindows(vals[0])
			cluster.SetAllRateLimits(vals[1])
			return nil
		})
	if err != nil {
		return nil, err
	}
	eng.Agent().SetDoubleDQN(o.doubleDQN())

	loop := sim.NewLoop()
	loop.Register(cluster) // the target system advances first
	loop.Register(eng)     // then CAPES samples, acts and trains
	return &Env{Opts: o, Cluster: cluster, Engine: eng, Loop: loop, Gen: gen}, nil
}

// cluster Tick adapter: storesim.Cluster already has Tick(now).
var _ sim.Ticker = (*storesim.Cluster)(nil)

// Train runs a training session of the given paper-scale duration in
// hours (ε-greedy, training on).
func (e *Env) Train(hours float64) {
	e.Engine.SetTraining(true)
	e.Engine.SetTuning(true)
	e.Engine.SetExploit(false)
	e.Loop.Run(e.Opts.Ticks(hours))
}

// MeasureTuned freezes learning (greedy policy, no training, no random
// actions) and returns the per-tick aggregate throughput series over the
// given paper-scale duration — the paper's "tuned" measurement phase.
func (e *Env) MeasureTuned(hours float64) []float64 {
	e.Engine.SetTraining(false)
	e.Engine.SetExploit(true)
	e.Engine.SetTuning(true)
	return e.measure(hours)
}

// MeasureBaseline resets the tunables to their defaults, disables CAPES
// actions, and returns the throughput series — the "before" measurement.
func (e *Env) MeasureBaseline(hours float64) []float64 {
	defaults := capes.LustreTunables()
	e.Cluster.SetAllWindows(defaults[0].Default)
	e.Cluster.SetAllRateLimits(defaults[1].Default)
	e.Engine.SetTraining(false)
	e.Engine.SetTuning(false)
	return e.measure(hours)
}

func (e *Env) measure(hours float64) []float64 {
	n := e.Opts.Ticks(hours)
	series := make([]float64, 0, n)
	for i := int64(0); i < n; i++ {
		e.Loop.Run(1)
		series = append(series, e.Cluster.AggregateThroughput())
	}
	return series
}
