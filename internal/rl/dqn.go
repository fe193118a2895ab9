package rl

import (
	"fmt"
	"math"
	"math/rand"

	"capes/internal/nn"
	"capes/internal/replay"
	"capes/internal/tensor"
)

// Config holds the DQN hyperparameters (Table 1).
type Config struct {
	Gamma         float64 // discount rate γ (0.99)
	LearningRate  float64 // Adam learning rate (0.0001)
	TargetUpdateα float64 // target-network soft-update rate (0.01; 1 copies θ→θ⁻ every step)
	MinibatchSize int     // observations per SGD update (32)
	GradientClip  float64 // global-norm clip; 0 disables (stability aid)
	UseTargetNet  bool    // disable for the ablation bench
	// DoubleDQN decouples action selection from evaluation in the
	// Bellman target: a' = argmax_a Q(s',a;θ) but the value comes from
	// Q(s',a';θ⁻), reducing maximization bias (van Hasselt et al.). One
	// of the "new deep learning techniques" §6 proposes evaluating.
	DoubleDQN bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Gamma < 0 || c.Gamma >= 1 {
		return fmt.Errorf("rl: gamma %v outside [0,1)", c.Gamma)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("rl: learning rate %v must be positive", c.LearningRate)
	}
	if c.TargetUpdateα <= 0 || c.TargetUpdateα > 1 {
		return fmt.Errorf("rl: target update rate %v outside (0,1]", c.TargetUpdateα)
	}
	if c.MinibatchSize <= 0 {
		return fmt.Errorf("rl: minibatch size %d must be positive", c.MinibatchSize)
	}
	return nil
}

// Agent is the deep Q-learning agent: an online Q-network, a target
// network θ⁻, the Adam optimizer, and the ε-greedy policy. The element
// type E selects the arithmetic precision of the whole training and
// action path; the CAPES engine instantiates Agent[float32] (the train
// step is memory-bound, so halving the element size is the dominant
// lever), while Agent[float64] remains available for reference runs and
// the ablation suite.
type Agent[E tensor.Element] struct {
	cfg     Config
	Online  *nn.MLP[E]
	Target  *nn.MLP[E]
	Opt     *nn.Adam[E]
	Epsilon *EpsilonSchedule

	nActions int
	rng      *rand.Rand
	gamma    E // cfg.Gamma rounded once to the working precision

	steps     int64
	lastLoss  float64
	lossEWMA  float64
	tdErrEWMA float64
	randTaken int64
	calcTaken int64

	// Reusable training-step scratch, sized by ensureScratch. Together
	// with the flat-parameter passes in internal/nn these keep TrainStep
	// and SelectAction allocation-free in steady state.
	gradOut    *tensor.Matrix[E]
	states     tensor.Matrix[E] // header over the batch's flattened states
	nextStates tensor.Matrix[E]
	targets    []E
	maxNext    []E
	argmaxNext []int
	qScratch   []E // Q-values for the ε-greedy action path
}

// NewAgent builds an agent for the given observation width and action
// count, using the paper's network shape (two hidden layers the width of
// the input, linear Q-value head).
func NewAgent[E tensor.Element](cfg Config, eps *EpsilonSchedule, obsWidth, nActions int, rng *rand.Rand) (*Agent[E], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if eps != nil {
		if err := eps.Validate(); err != nil {
			return nil, err
		}
	}
	if obsWidth <= 0 || nActions <= 0 {
		return nil, fmt.Errorf("rl: obsWidth %d / nActions %d must be positive", obsWidth, nActions)
	}
	online := nn.NewCAPESNetwork[E](rng, obsWidth, nActions)
	// Zero the Q-head: every action starts with Q(s,a)=0, so the initial
	// greedy argmax ties and resolves to action 0 (NULL in CAPES's
	// action space) instead of an arbitrary direction baked in by random
	// initialization. Exploration then comes solely from ε, which
	// removes the "camp at a range corner before training catches up"
	// failure mode of short sessions.
	head := online.Params()[len(online.Params())-2:]
	for _, p := range head {
		p.Zero()
	}
	return newAgent(cfg, eps, online, rng), nil
}

// NewAgentWithNetwork wraps an existing network (checkpoint restore).
func NewAgentWithNetwork[E tensor.Element](cfg Config, eps *EpsilonSchedule, online *nn.MLP[E], rng *rand.Rand) (*Agent[E], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if eps != nil {
		if err := eps.Validate(); err != nil {
			return nil, err
		}
	}
	return newAgent(cfg, eps, online, rng), nil
}

func newAgent[E tensor.Element](cfg Config, eps *EpsilonSchedule, online *nn.MLP[E], rng *rand.Rand) *Agent[E] {
	a := &Agent[E]{
		cfg:      cfg,
		Online:   online,
		Target:   online.Clone(),
		Opt:      nn.NewAdam[E](cfg.LearningRate),
		Epsilon:  eps,
		nActions: online.OutputSize(),
		rng:      rng,
		gamma:    E(cfg.Gamma),
		qScratch: make([]E, online.OutputSize()),
	}
	a.ensureScratch(cfg.MinibatchSize)
	return a
}

// ensureScratch (re)sizes the per-minibatch buffers. Normally this runs
// once — every batch is MinibatchSize — but callers may train on other
// sizes (the ablation benches do), and the scratch follows the batch.
func (a *Agent[E]) ensureScratch(n int) {
	if a.gradOut != nil && a.gradOut.Rows == n {
		return
	}
	a.gradOut = tensor.New[E](n, a.nActions)
	a.targets = make([]E, n)
	a.maxNext = make([]E, n)
	a.argmaxNext = make([]int, n)
}

// Config returns the agent's hyperparameters.
func (a *Agent[E]) Config() Config { return a.cfg }

// SelectAction applies the ε-greedy policy at the given tick: with
// probability ε a uniformly random action, otherwise argmax_a Q(obs,a)
// from a single forward pass (the paper's "second type" Q-head, §3.4).
func (a *Agent[E]) SelectAction(obs []E, tick int64) int {
	eps := 0.0
	if a.Epsilon != nil {
		eps = a.Epsilon.At(tick)
	}
	if a.rng.Float64() < eps {
		a.randTaken++
		return a.rng.Intn(a.nActions)
	}
	a.calcTaken++
	return tensor.ArgMax(a.Online.ForwardVecInto(a.qScratch, obs))
}

// GreedyAction returns argmax_a Q(obs,a) ignoring ε (tuning phase).
func (a *Agent[E]) GreedyAction(obs []E) int {
	return tensor.ArgMax(a.Online.ForwardVecInto(a.qScratch, obs))
}

// ActionCounts reports how many random vs. calculated actions were taken.
func (a *Agent[E]) ActionCounts() (random, calculated int64) {
	return a.randTaken, a.calcTaken
}

// TrainStep performs one SGD update on a replay minibatch, implementing
// the loss of Equation 1:
//
//	Lᵢ(θᵢ) = E_D[(r + γ·max_a' Q(s',a';θ⁻) − Q(s,a;θ))²]
//
// followed by the target-network update θ⁻ = θ⁻(1−α) + θα. It returns the
// minibatch loss — the "prediction error" plotted in Figure 5.
//
// TrainStep is exactly ComputeGradients followed by ApplyGradients; the
// split exists for data-parallel cluster training, where every worker
// exchanges its gradient between the two and applies the cluster's mean
// instead of its local one. The composed path is bit-identical to the
// historical single-method step.
func (a *Agent[E]) TrainStep(b *replay.Batch[E]) (float64, error) {
	loss, err := a.ComputeGradients(b)
	if err != nil {
		return loss, err
	}
	return loss, a.ApplyGradients(loss)
}

// ComputeGradients runs the forward/backward pass for one minibatch,
// leaving ∂L/∂θ in the online network's flat gradient arena (see
// MLP.FlatGrads) and returning the minibatch loss. It performs no
// optimizer step and advances no counters — cluster followers call it to
// produce a gradient frame for the leader, and the leader calls it for
// its own local contribution before reducing.
//
// Divergence guards (audited for float32): the scalar loss is summed in
// float64 and checked for NaN/±Inf on every call — a float32 network
// that blows past ~3.4e38 mid-batch surfaces immediately instead of at
// the next periodic parameter scan (ApplyGradients' backstop).
func (a *Agent[E]) ComputeGradients(b *replay.Batch[E]) (float64, error) {
	// Accept any batch size; the scratch set resizes only when it changes.
	a.ensureScratch(b.N)
	states, nextStates := &a.states, &a.nextStates
	states.Rows, states.Cols, states.Data = b.N, b.Width, b.States
	nextStates.Rows, nextStates.Cols, nextStates.Data = b.N, b.Width, b.NextStates

	// Bellman targets from the target network (or online net in the
	// no-target-net ablation).
	tnet := a.Target
	if !a.cfg.UseTargetNet {
		tnet = a.Online
	}
	targets := a.targets
	if a.cfg.DoubleDQN && a.cfg.UseTargetNet {
		// Double DQN: pick a' with the online network, evaluate it with
		// the target network. The online pass runs first; its argmax is
		// captured before the target pass reuses the forward buffers.
		onlineNext := a.Online.Forward(nextStates)
		onlineNext.MaxPerRowInto(a.maxNext, a.argmaxNext)
		targetNext := a.Target.Forward(nextStates)
		for i := range targets {
			targets[i] = b.Rewards[i] + a.gamma*targetNext.At(i, a.argmaxNext[i])
		}
	} else {
		nextQ := tnet.Forward(nextStates)
		nextQ.MaxPerRowInto(a.maxNext, a.argmaxNext)
		for i := range targets {
			targets[i] = b.Rewards[i] + a.gamma*a.maxNext[i]
		}
	}

	// Forward the online network *after* the target pass: both networks
	// reuse internal buffers, and when tnet == Online the target pass
	// would otherwise clobber the activations backprop needs.
	pred := a.Online.Forward(states)
	loss := nn.MaskedMSE(pred, b.Actions, targets, a.gradOut)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		// Fail before the optimizer bakes non-finite gradients into the
		// parameters and both moment buffers.
		return loss, fmt.Errorf("rl: non-finite minibatch loss at step %d: %w", a.steps+1, tensor.ErrNonFinite)
	}
	a.Online.Backward(a.gradOut)
	return loss, nil
}

// ApplyGradients consumes whatever gradient currently sits in the online
// network's flat gradient arena: global-norm clip, fused Adam step,
// target-network update, step counter, loss telemetry and the periodic
// divergence scan. loss is the minibatch loss the gradient came from (a
// cluster worker passes the worker-mean loss of the mean gradient).
// TrainStep == ComputeGradients + ApplyGradients.
func (a *Agent[E]) ApplyGradients(loss float64) error {
	// The optimizer pass fuses in the global-norm gradient clip (as a
	// scale applied while gradients are read) and the target-network
	// soft update, so the whole parameter working set is touched once.
	gradScale := 1.0
	if a.cfg.GradientClip > 0 {
		if norm := nn.FlatNorm(a.Online.FlatGrads()); norm > a.cfg.GradientClip {
			gradScale = a.cfg.GradientClip / norm
		}
	}
	var target []E
	if a.cfg.UseTargetNet {
		target = a.Target.FlatParams()
	}
	a.Opt.FusedStep(a.Online.FlatParams(), a.Online.FlatGrads(), gradScale, target, a.cfg.TargetUpdateα)

	a.steps++
	a.noteLoss(loss)
	if a.steps%1000 == 0 {
		if err := a.Online.CheckFinite(); err != nil {
			return fmt.Errorf("rl: network diverged after %d steps: %w", a.steps, err)
		}
	}
	return nil
}

// ProbeFinite scans the online and target parameter arenas for NaN/Inf,
// wrapping tensor.ErrNonFinite on a hit. It is the divergence guard's
// explicit probe — unlike ApplyGradients' every-1000-steps backstop it
// runs on the caller's schedule, so a supervisor can scan as often as
// its policy demands. Allocation-free on the healthy path. Callers must
// hold whatever excludes a concurrent TrainStep (the probe reads the
// arenas the optimizer mutates).
func (a *Agent[E]) ProbeFinite() error {
	if err := a.Online.CheckFinite(); err != nil {
		return fmt.Errorf("rl: online network: %w", err)
	}
	if a.cfg.UseTargetNet {
		if err := a.Target.CheckFinite(); err != nil {
			return fmt.Errorf("rl: target network: %w", err)
		}
	}
	return nil
}

// noteLoss folds one step's minibatch loss into the telemetry EWMAs.
// Callers advance a.steps first: the first-ever step seeds the EWMAs
// instead of decaying from zero.
func (a *Agent[E]) noteLoss(loss float64) {
	a.lastLoss = loss
	// The minibatch loss is the mean squared TD error, so √loss is the
	// RMS TD error of this batch — the natural "how wrong are the
	// Bellman targets" scale for dashboards (it has the units of Q).
	tdErr := math.Sqrt(loss)
	if a.steps == 1 {
		a.lossEWMA = loss
		a.tdErrEWMA = tdErr
	} else {
		a.lossEWMA = a.lossEWMA*0.99 + loss*0.01
		a.tdErrEWMA = a.tdErrEWMA*0.99 + tdErr*0.01
	}
}

// Steps returns the number of training steps performed.
func (a *Agent[E]) Steps() int64 { return a.steps }

// LastLoss returns the most recent minibatch loss.
func (a *Agent[E]) LastLoss() float64 { return a.lastLoss }

// SmoothedLoss returns an EWMA of the training loss (Figure 5's series).
func (a *Agent[E]) SmoothedLoss() float64 { return a.lossEWMA }

// TDErrorEMA returns an EWMA of the per-batch RMS temporal-difference
// error (√loss): the same signal as SmoothedLoss but in Q-value units,
// so operators can read it against the reward scale.
func (a *Agent[E]) TDErrorEMA() float64 { return a.tdErrEWMA }

// SetDoubleDQN toggles the Double-DQN target rule at runtime.
func (a *Agent[E]) SetDoubleDQN(on bool) { a.cfg.DoubleDQN = on }

// RestoreSteps sets the train-step counter, used when resuming a
// checkpointed session (the manifest records Steps). Everything phased
// off the counter — the first-step EWMA seeding, the every-1000-steps
// divergence scan — continues from n exactly as an uninterrupted run
// would.
func (a *Agent[E]) RestoreSteps(n int64) error {
	if n < 0 {
		return fmt.Errorf("rl: negative train-step counter %d", n)
	}
	a.steps = n
	return nil
}

// RestoreTelemetry sets the loss/TD-error telemetry and the action
// counters, used on checkpoint restore so dashboards and Stats stay
// monotonic and smooth across a resume instead of re-seeding from zero.
func (a *Agent[E]) RestoreTelemetry(lastLoss, lossEWMA, tdErrEWMA float64, random, calculated int64) {
	a.lastLoss = lastLoss
	a.lossEWMA = lossEWMA
	a.tdErrEWMA = tdErrEWMA
	if random >= 0 {
		a.randTaken = random
	}
	if calculated >= 0 {
		a.calcTaken = calculated
	}
}

// ApplyParamBroadcast absorbs a leader's full sync: everything a cluster
// worker that steps for itself needs to continue the leader's trajectory
// bit for bit. The online and target networks take params and target,
// the optimizer takes the leader's moments m and v and its own step
// count optStep (all empty for an optimizer that has not stepped — not
// the same as step 0: a checkpoint restore keeps the global step and
// starts the optimizer afresh), the step counter jumps to the leader's
// global step — keeping the divergence-scan schedule aligned — and the
// loss EWMA continues from the leader's. From then on the worker applies
// the same mean gradients through the same ApplyGradients as the leader;
// there is no second implementation of the update rule to keep in step.
// Every length is checked before anything is written.
func (a *Agent[E]) ApplyParamBroadcast(step int64, params, target, m, v []E, optStep int64, lossEWMA float64) error {
	n := len(a.Online.FlatParams())
	if step < 0 || optStep < 0 {
		return fmt.Errorf("rl: full sync for step %d, optimizer step %d", step, optStep)
	}
	if len(params) != n || len(target) != n {
		return fmt.Errorf("rl: full sync carries %d params and %d target values for a %d-param network", len(params), len(target), n)
	}
	if len(m) != len(v) || (len(m) != 0 && len(m) != n) {
		return fmt.Errorf("rl: full sync carries %d/%d optimizer moments for a %d-param network", len(m), len(v), n)
	}
	if err := a.Opt.RestoreFlat(int(optStep), m, v); err != nil {
		return err
	}
	copy(a.Online.FlatParams(), params)
	copy(a.Target.FlatParams(), target)
	a.steps = step
	a.lossEWMA = lossEWMA
	return nil
}
