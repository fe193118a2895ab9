package rl

import (
	"math"
	"math/rand"
	"testing"

	"capes/internal/nn"
	"capes/internal/replay"
	"capes/internal/tensor"
)

func TestEpsilonScheduleAnneal(t *testing.T) {
	e := NewEpsilonSchedule(100)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := e.At(0); got != 1.0 {
		t.Fatalf("ε(0) = %v", got)
	}
	mid := e.At(50)
	want := 1.0 - (1.0-0.05)*0.5
	if math.Abs(mid-want) > 1e-12 {
		t.Fatalf("ε(50) = %v, want %v", mid, want)
	}
	if got := e.At(100); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("ε(100) = %v", got)
	}
	if got := e.At(100000); got != 0.05 {
		t.Fatalf("ε stays at final: %v", got)
	}
}

func TestEpsilonMonotoneNonIncreasing(t *testing.T) {
	e := NewEpsilonSchedule(1000)
	prev := e.At(0)
	for tick := int64(1); tick <= 2000; tick += 7 {
		cur := e.At(tick)
		if cur > prev+1e-12 {
			t.Fatalf("ε increased at %d: %v → %v", tick, prev, cur)
		}
		prev = cur
	}
}

func TestEpsilonBump(t *testing.T) {
	e := NewEpsilonSchedule(100)
	// After anneal completes, ε = 0.05; a bump raises it to 0.2.
	e.Bump(200)
	if got := e.At(200); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("ε after bump = %v", got)
	}
	// It anneals back down at the original slope.
	slope := (1.0 - 0.05) / 100
	wantAt210 := 0.2 - slope*10
	if got := e.At(210); math.Abs(got-wantAt210) > 1e-12 {
		t.Fatalf("ε(210) = %v, want %v", got, wantAt210)
	}
	// Eventually back to final.
	if got := e.At(1000); got != 0.05 {
		t.Fatalf("ε(1000) = %v", got)
	}
}

func TestEpsilonBumpDuringInitialExplorationIsNoop(t *testing.T) {
	e := NewEpsilonSchedule(100)
	e.Bump(10) // ε(10) ≈ 0.905 > 0.2 already
	if got, want := e.At(10), 1.0-(1.0-0.05)*0.1; math.Abs(got-want) > 1e-12 {
		t.Fatalf("bump during exploration changed ε: %v want %v", got, want)
	}
}

func TestEpsilonValidate(t *testing.T) {
	bad := []*EpsilonSchedule{
		{Initial: 0.1, Final: 0.5, AnnealTicks: 10},
		{Initial: 1.5, Final: 0.05, AnnealTicks: 10},
		{Initial: 1, Final: -0.1, AnnealTicks: 10},
		{Initial: 1, Final: 0.05, AnnealTicks: 0},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, mod := range []func(*Config){
		func(c *Config) { c.Gamma = 1.0 },
		func(c *Config) { c.Gamma = -0.1 },
		func(c *Config) { c.LearningRate = 0 },
		func(c *Config) { c.TargetUpdateα = 0 },
		func(c *Config) { c.TargetUpdateα = 1.5 },
		func(c *Config) { c.MinibatchSize = 0 },
	} {
		c := DefaultConfig()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestNewAgentValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewAgent[float64](Config{}, nil, 4, 3, rng); err == nil {
		t.Fatal("zero config must fail validation")
	}
	if _, err := NewAgent[float64](DefaultConfig(), nil, 0, 3, rng); err == nil {
		t.Fatal("zero obsWidth must fail")
	}
	bad := NewEpsilonSchedule(0)
	if _, err := NewAgent[float64](DefaultConfig(), bad, 4, 3, rng); err == nil {
		t.Fatal("invalid epsilon schedule must fail")
	}
}

func TestSelectActionEpsilonExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// ε pinned at 1.0 forever: all actions random.
	eps := &EpsilonSchedule{Initial: 1, Final: 1, AnnealTicks: 1}
	a, err := NewAgent[float64](DefaultConfig(), eps, 4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	obs := []float64{0.1, 0.2, 0.3, 0.4}
	counts := make([]int, 3)
	for i := 0; i < 300; i++ {
		counts[a.SelectAction(obs, 0)]++
	}
	for act, c := range counts {
		if c < 50 {
			t.Fatalf("action %d taken only %d/300 times under ε=1", act, c)
		}
	}
	random, calc := a.ActionCounts()
	if random != 300 || calc != 0 {
		t.Fatalf("counts = %d random, %d calculated", random, calc)
	}
	// ε = 0: always the greedy action.
	a2, _ := NewAgent[float64](DefaultConfig(), nil, 4, 3, rng)
	greedy := a2.GreedyAction(obs)
	for i := 0; i < 50; i++ {
		if got := a2.SelectAction(obs, 0); got != greedy {
			t.Fatalf("nil schedule must be greedy: got %d want %d", got, greedy)
		}
	}
}

func TestQValuesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, _ := NewAgent[float64](DefaultConfig(), nil, 6, 5, rng)
	q := a.Online.ForwardVecInto(make([]float64, 5), make([]float64, 6))
	if len(q) != 5 {
		t.Fatalf("QValues len = %d", len(q))
	}
	if a.nActions != 5 {
		t.Fatalf("NumActions = %d", a.nActions)
	}
}

// TestTrainStepReducesBellmanError: on a fixed synthetic batch, repeated
// training steps must drive the masked MSE toward zero.
func TestTrainStepReducesBellmanError(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultConfig()
	cfg.LearningRate = 1e-3
	a, err := NewAgent[float64](cfg, nil, 4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	n, w := 32, 4
	b := &replay.Batch[float64]{
		States:     make([]float64, n*w),
		NextStates: make([]float64, n*w),
		Actions:    make([]int, n),
		Rewards:    make([]float64, n),
		N:          n,
		Width:      w,
	}
	for i := 0; i < n; i++ {
		for j := 0; j < w; j++ {
			b.States[i*w+j] = rng.Float64()
			b.NextStates[i*w+j] = rng.Float64()
		}
		b.Actions[i] = rng.Intn(3)
		b.Rewards[i] = rng.Float64()
	}
	first, err := a.TrainStep(b)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 400; i++ {
		last, err = a.TrainStep(b)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %g, last %g", first, last)
	}
	if a.Steps() != 401 {
		t.Fatalf("Steps = %d", a.Steps())
	}
	if a.LastLoss() != last {
		t.Fatal("LastLoss mismatch")
	}
	if a.SmoothedLoss() <= 0 {
		t.Fatal("SmoothedLoss not tracked")
	}
}

// TestTargetNetworkLagsOnline: after a few train steps the target network
// parameters must differ from the online network (it lags) but move
// toward it under soft updates.
func TestTargetNetworkLagsOnline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig()
	cfg.LearningRate = 1e-2
	a, _ := NewAgent[float64](cfg, nil, 3, 2, rng)
	b := syntheticBatch(rng, 16, 3, 2)
	distBefore := paramDistance(a.Online, a.Target)
	if distBefore != 0 {
		t.Fatal("target must start as an exact copy")
	}
	for i := 0; i < 20; i++ {
		if _, err := a.TrainStep(b); err != nil {
			t.Fatal(err)
		}
	}
	if paramDistance(a.Online, a.Target) == 0 {
		t.Fatal("target should lag the online network after training")
	}
}

// TestHardTargetUpdate: α = 1 is a hard update every step. The soft
// sweep computes θ⁻·0 + θ·1, so after each step the target equals the
// online network exactly.
func TestHardTargetUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultConfig()
	cfg.LearningRate = 1e-2
	cfg.TargetUpdateα = 1
	a, err := NewAgent[float32](cfg, nil, 3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	b := makeBenchBatch[float32](rng, 16, 3, 2)
	for i := 0; i < 5; i++ {
		if _, err := a.TrainStep(b); err != nil {
			t.Fatal(err)
		}
		for j, want := range a.Online.FlatParams() {
			if got := a.Target.FlatParams()[j]; got != want {
				t.Fatalf("step %d: α=1 target[%d] = %v, want %v", i+1, j, got, want)
			}
		}
	}
}

// TestNoTargetNetAblation: training without a target network is α = 1.
// θ⁻ is a copy of θ after every step, so each step's Bellman targets
// r + γ·max_a' Q(s',a';θ) come from the online network itself: the loss
// TrainStep returns equals, bit for bit, the loss recomputed from the
// online network alone. (At α < 1 the target lags from the second step
// on and the two differ.)
func TestNoTargetNetAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultConfig()
	cfg.TargetUpdateα = 1
	a, err := NewAgent[float64](cfg, nil, 3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	b := syntheticBatch(rng, 8, 3, 2)
	states := &tensor.Matrix[float64]{Rows: b.N, Cols: b.Width, Data: b.States}
	next := &tensor.Matrix[float64]{Rows: b.N, Cols: b.Width, Data: b.NextStates}
	maxNext, argmax := make([]float64, b.N), make([]int, b.N)
	targets := make([]float64, b.N)
	grad := tensor.New[float64](b.N, 2)
	for i := 0; i < 10; i++ {
		a.Online.Forward(next).MaxPerRowInto(maxNext, argmax)
		for j := range targets {
			targets[j] = b.Rewards[j] + cfg.Gamma*maxNext[j]
		}
		want := nn.MaskedMSE(a.Online.Forward(states), b.Actions, targets, grad)
		got, err := a.TrainStep(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("step %d: loss %v, want %v from the online network's own targets", i+1, got, want)
		}
	}
	if a.Steps() != 10 {
		t.Fatalf("Steps = %d", a.Steps())
	}
}

func TestNewAgentWithNetworkRestoresShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := nn.NewMLP[float64](rng, nn.ActTanh, 5, 7, 4)
	a, err := NewAgentWithNetwork(DefaultConfig(), nil, net, net.Clone(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if a.nActions != 4 {
		t.Fatalf("NumActions = %d", a.nActions)
	}
	if a.Online != net {
		t.Fatal("agent must wrap the provided network")
	}
}

// TestDQNLearnsHillClimb is the end-to-end learning test: a 1-D parameter
// with reward peaked at p*=0.6 (a stand-in for the congestion-window
// response surface). The agent must learn a policy that steps toward the
// peak from both sides — exactly what CAPES must do with
// max_rpcs_in_flight.
func TestDQNLearnsHillClimb(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const (
		target = 0.6
		step   = 0.05
		ticks  = 6000
	)
	f := func(p float64) float64 {
		d := p - target
		return 1 - 4*d*d
	}
	db, err := replay.New(replay.Config{FrameWidth: 2, StackTicks: 1, MissingTolerance: 0})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Gamma = 0.9
	cfg.LearningRate = 1e-3
	net := nn.NewMLP[float64](rng, nn.ActTanh, 2, 24, 24, 3)
	eps := NewEpsilonSchedule(ticks / 2)
	agent, err := NewAgentWithNetwork(cfg, eps, net, net.Clone(), rng)
	if err != nil {
		t.Fatal(err)
	}
	rf := func(cur, next replay.Frame) float64 { return f(next[0]) - f(cur[0]) }

	p := 0.1
	for tick := int64(0); tick < ticks; tick++ {
		obs := []float64{p, 1}
		db.PutFrame(tick, replay.Frame(obs))
		act := agent.SelectAction(obs, tick)
		db.PutAction(tick, act)
		p += step * float64(act-1) // 0:dec 1:null 2:inc
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		if tick > 64 && tick%2 == 0 {
			b := new(replay.Batch[float64])
			if err := replay.ConstructMinibatchInto(db, rng, 32, rf, b); err != nil {
				t.Fatal(err)
			}
			if _, err := agent.TrainStep(b); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The greedy policy must point uphill on both sides of the peak.
	correct, total := 0, 0
	for _, p := range []float64{0.05, 0.15, 0.25, 0.35, 0.45} {
		total++
		if agent.GreedyAction([]float64{p, 1}) == 2 {
			correct++
		}
	}
	for _, p := range []float64{0.75, 0.85, 0.95} {
		total++
		if agent.GreedyAction([]float64{p, 1}) == 0 {
			correct++
		}
	}
	if correct < total-1 {
		t.Fatalf("greedy policy correct at only %d/%d probe points", correct, total)
	}

	// And running the greedy policy from a bad start must converge near
	// the peak.
	p = 0.05
	for i := 0; i < 200; i++ {
		act := agent.GreedyAction([]float64{p, 1})
		p += step * float64(act-1)
		p = min(max(p, 0), 1)
	}
	if math.Abs(p-target) > 0.1 {
		t.Fatalf("greedy rollout settled at %v, want near %v", p, target)
	}
}

func syntheticBatch(rng *rand.Rand, n, w, nActions int) *replay.Batch[float64] {
	b := &replay.Batch[float64]{
		States:     make([]float64, n*w),
		NextStates: make([]float64, n*w),
		Actions:    make([]int, n),
		Rewards:    make([]float64, n),
		N:          n,
		Width:      w,
	}
	for i := 0; i < n; i++ {
		for j := 0; j < w; j++ {
			b.States[i*w+j] = rng.Float64()
			b.NextStates[i*w+j] = rng.Float64()
		}
		b.Actions[i] = rng.Intn(nActions)
		b.Rewards[i] = rng.Float64()
	}
	return b
}

func paramDistance(a, b *nn.MLP[float64]) float64 {
	var d float64
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Data {
			diff := pa[i].Data[j] - pb[i].Data[j]
			d += diff * diff
		}
	}
	return d
}

// TestDoubleDQNLearns verifies the Double-DQN target path trains and the
// hill-climb task is still solved.
func TestDoubleDQNLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := DefaultConfig()
	cfg.Gamma = 0.9
	cfg.LearningRate = 1e-3
	cfg.DoubleDQN = true
	db, _ := replay.New(replay.Config{FrameWidth: 2, StackTicks: 1})
	net := nn.NewMLP[float64](rng, nn.ActTanh, 2, 24, 24, 3)
	agent, err := NewAgentWithNetwork(cfg, NewEpsilonSchedule(3000), net, net.Clone(), rng)
	if err != nil {
		t.Fatal(err)
	}
	const target = 0.6
	f := func(p float64) float64 { d := p - target; return 1 - 4*d*d }
	rf := func(cur, next replay.Frame) float64 { return f(next[0]) - f(cur[0]) }
	p := 0.1
	for tick := int64(0); tick < 6000; tick++ {
		obs := []float64{p, 1}
		db.PutFrame(tick, replay.Frame(obs))
		act := agent.SelectAction(obs, tick)
		db.PutAction(tick, act)
		p = min(max(p+0.05*float64(act-1), 0), 1)
		if tick > 64 && tick%2 == 0 {
			b := new(replay.Batch[float64])
			if err := replay.ConstructMinibatchInto(db, rng, 32, rf, b); err != nil {
				t.Fatal(err)
			}
			if _, err := agent.TrainStep(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	p = 0.05
	for i := 0; i < 200; i++ {
		p = min(max(p+0.05*float64(agent.GreedyAction([]float64{p, 1})-1), 0), 1)
	}
	if math.Abs(p-target) > 0.12 {
		t.Fatalf("Double DQN rollout settled at %v, want near %v", p, target)
	}
}

// TestDoubleDQNTargetsDifferFromVanilla: with distinct online/target
// networks, the two target rules must produce different updates.
func TestDoubleDQNTargetsDifferFromVanilla(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func(double bool) *Agent[float64] {
		cfg := DefaultConfig()
		cfg.LearningRate = 1e-2
		cfg.DoubleDQN = double
		r := rand.New(rand.NewSource(9))
		a, _ := NewAgent[float64](cfg, nil, 3, 4, r)
		// Desynchronize the target network so selection and evaluation
		// genuinely differ.
		for _, p := range a.Target.Params() {
			for i := range p.Data {
				p.Data[i] += 0.5 * r.NormFloat64()
			}
		}
		return a
	}
	batch := syntheticBatch(rng, 16, 3, 4)
	a1, a2 := mk(false), mk(true)
	for i := 0; i < 5; i++ {
		a1.TrainStep(batch)
		a2.TrainStep(batch)
	}
	if paramDistance(a1.Online, a2.Online) == 0 {
		t.Fatal("double and vanilla DQN produced identical updates")
	}
}

// TestZeroHeadInitPrefersNull: a fresh agent's Q-values are all zero, so
// the greedy action for any observation is action 0 (NULL in the CAPES
// action space) — the anti-camping initialization.
func TestZeroHeadInitPrefersNull(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a, err := NewAgent[float64](DefaultConfig(), nil, 6, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		obs := make([]float64, 6)
		for i := range obs {
			obs[i] = rng.NormFloat64()
		}
		q := a.Online.ForwardVecInto(make([]float64, a.nActions), obs)
		for _, v := range q {
			if v != 0 {
				t.Fatalf("fresh Q-values not zero: %v", q)
			}
		}
		if got := a.GreedyAction(obs); got != 0 {
			t.Fatalf("fresh greedy action = %d, want 0", got)
		}
	}
}
