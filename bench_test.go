// Ablation benches for CAPES's design decisions — the target network,
// experience replay, observation stacking, the ε bump and the one-pass
// Q-head — plus the Table 2 training-step timing row on the
// engine's own path. The figures and tables of the evaluation (§4) come
// from cmd/capes-bench, which runs every experiment runner at any scale.
package capes_test

import (
	"math/rand"
	"testing"

	"capes/internal/experiment"
	"capes/internal/nn"
	"capes/internal/replay"
	"capes/internal/rl"
	"capes/internal/workload"
)

// BenchmarkTable2TrainStepCPU regenerates the Table 2 training-step
// timing row on the path a session runs: Engine.Agent().TrainStep on one
// float32 32-observation minibatch of paper-shaped (1760-wide)
// observations.
func BenchmarkTable2TrainStepCPU(b *testing.B) {
	step, err := experiment.NewTrainStep(1760, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations. Each trains a float32 DQN, the engine's precision, on the
// same 1-D hill-climb task (a distilled congestion-window surface) and
// reports how close the learned greedy policy's operating point lands to
// the optimum.

// ablationRun trains with the given rl.Config tweaks and returns the
// final distance of a greedy rollout from the optimum (lower is better).
func ablationRun(b *testing.B, seed int64, mutate func(*rl.Config), stack int, useReplay bool) float64 {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	const (
		target = 0.6
		step   = 0.05
		ticks  = 4000
	)
	f := func(p float64) float64 { d := p - target; return 1 - 4*d*d }
	cfg := rl.Config{Gamma: 0.9, LearningRate: 1e-3, TargetUpdateα: 0.01,
		MinibatchSize: 32, GradientClip: 10}
	mutate(&cfg)
	db, err := replay.New(replay.Config{FrameWidth: 2, StackTicks: stack})
	if err != nil {
		b.Fatal(err)
	}
	net := nn.NewMLP[float32](rng, nn.ActTanh, 2*stack, 24, 24, 3)
	eps := &rl.EpsilonSchedule{Initial: 1, Final: 0.05, AnnealTicks: ticks / 2, BumpValue: 0.2}
	agent, err := rl.NewAgentWithNetwork(cfg, eps, net, net.Clone(), rng)
	if err != nil {
		b.Fatal(err)
	}
	rf := func(cur, next replay.Frame) float64 { return f(next[0]) - f(cur[0]) }
	obsOf := func(t int64) []float32 {
		obs := make([]float32, db.ObservationWidth())
		if err := replay.ObservationInto(db, obs, t); err != nil {
			clear(obs)
		}
		return obs
	}
	p := 0.1
	for tick := int64(0); tick < ticks; tick++ {
		db.PutFrame(tick, replay.Frame{p, 1})
		act := agent.SelectAction(obsOf(tick), tick)
		db.PutAction(tick, act)
		p += step * float64(act-1)
		p = min(max(p, 0), 1)
		if tick > 64 && tick%2 == 0 {
			batch := new(replay.Batch[float32])
			var err error
			if useReplay {
				err = replay.ConstructMinibatchInto(db, rng, 16, rf, batch)
			} else {
				// Sequential training: the last 16 consecutive ticks
				// (temporally correlated — the failure mode experience
				// replay exists to avoid).
				batch, err = sequentialBatch(db, tick, 16, rf)
			}
			if err != nil {
				continue
			}
			if _, err := agent.TrainStep(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Greedy rollout from a cold start.
	p = 0.05
	for i := int64(0); i < 200; i++ {
		// Feed the rollout through the replay path so stacked
		// observations stay consistent.
		t := ticks + i
		db.PutFrame(t, replay.Frame{p, 1})
		act := agent.GreedyAction(obsOf(t))
		p += step * float64(act-1)
		p = min(max(p, 0), 1)
	}
	d := p - target
	if d < 0 {
		d = -d
	}
	return d
}

func sequentialBatch(db *replay.DB, end int64, n int, rf replay.RewardFunc) (*replay.Batch[float32], error) {
	w := db.ObservationWidth()
	b := &replay.Batch[float32]{
		States:     make([]float32, n*w),
		NextStates: make([]float32, n*w),
		N:          n,
		Width:      w,
	}
	for i := 0; i < n; i++ {
		t := end - int64(n) + int64(i)
		if err := replay.ObservationInto(db, b.States[i*w:(i+1)*w], t); err != nil {
			return nil, err
		}
		if err := replay.ObservationInto(db, b.NextStates[i*w:(i+1)*w], t+1); err != nil {
			return nil, err
		}
		a, ok := db.ActionAt(t)
		if !ok {
			return nil, replay.ErrInsufficientData
		}
		cur, _ := db.FrameAt(t)
		next, ok := db.FrameAt(t + 1)
		if !ok {
			return nil, replay.ErrInsufficientData
		}
		b.Actions = append(b.Actions, a)
		b.Rewards = append(b.Rewards, float32(rf(cur, next)))
	}
	return b, nil
}

// BenchmarkAblationTargetNetwork compares the soft-updated target network
// with none. No target network is α = 1: θ⁻ is a copy of θ after every
// step, so the Bellman targets come from the online network itself.
func BenchmarkAblationTargetNetwork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationRun(b, 42, func(c *rl.Config) {}, 1, true)
		without := ablationRun(b, 42, func(c *rl.Config) { c.TargetUpdateα = 1 }, 1, true)
		if i == 0 {
			b.ReportMetric(with, "dist_with_target")
			b.ReportMetric(without, "dist_no_target")
		}
	}
}

// BenchmarkAblationReplay compares experience replay vs sequential
// (temporally correlated) minibatches.
func BenchmarkAblationReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationRun(b, 43, func(c *rl.Config) {}, 1, true)
		without := ablationRun(b, 43, func(c *rl.Config) {}, 1, false)
		if i == 0 {
			b.ReportMetric(with, "dist_replay")
			b.ReportMetric(without, "dist_sequential")
		}
	}
}

// BenchmarkAblationStacking compares 1-tick vs 4-tick observations.
func BenchmarkAblationStacking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		single := ablationRun(b, 44, func(c *rl.Config) {}, 1, true)
		stacked := ablationRun(b, 44, func(c *rl.Config) {}, 4, true)
		if i == 0 {
			b.ReportMetric(single, "dist_stack1")
			b.ReportMetric(stacked, "dist_stack4")
		}
	}
}

// BenchmarkAblationEpsilonBump measures recovery after a workload change
// with and without the ε bump of §3.6.
func BenchmarkAblationEpsilonBump(b *testing.B) {
	run := func(bump bool) float64 {
		o := experiment.DefaultOptions()
		gen := workload.NewSwitching(o.Ticks(6),
			workload.NewRandRW(1, 9, 5),
			workload.NewRandRW(9, 1, 5))
		env, err := experiment.NewEnv(o, gen)
		if err != nil {
			b.Fatal(err)
		}
		n := o.Ticks(24)
		var sum float64
		var cnt int
		for tick := int64(1); tick <= n; tick++ {
			if bump && tick%gen.PhaseTicks == 0 { // a phase switch
				env.Engine.NotifyWorkloadChange(tick)
			}
			env.Loop.Run(1)
			sum += env.Cluster.AggregateThroughput()
			cnt++
		}
		return sum / float64(cnt)
	}
	for i := 0; i < b.N; i++ {
		withBump := run(true)
		withoutBump := run(false)
		if i == 0 {
			b.ReportMetric(withBump/1e6, "tput_bump_MBps")
			b.ReportMetric(withoutBump/1e6, "tput_nobump_MBps")
		}
	}
}

// BenchmarkAblationQHead compares the paper's chosen Q-head (one forward
// pass emitting all action values) against the observation-action-pair
// alternative (one forward pass per action) — §3.4's computational-cost
// argument.
func BenchmarkAblationQHead(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const obsW, nActions = 250, 5
	multi := nn.NewCAPESNetwork[float32](rng, obsW, nActions)
	// Pair network: observation + one-hot action → scalar.
	pair := nn.NewMLP[float32](rng, nn.ActTanh, obsW+nActions, obsW, obsW, 1)
	obs := make([]float32, obsW)
	for i := range obs {
		obs[i] = rng.Float32()
	}
	b.Run("single-pass-all-actions", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = multi.ForwardVecInto(make([]float32, nActions), obs)
		}
	})
	b.Run("per-action-passes", func(b *testing.B) {
		in := make([]float32, obsW+nActions)
		copy(in, obs)
		for i := 0; i < b.N; i++ {
			for a := 0; a < nActions; a++ {
				for k := 0; k < nActions; k++ {
					in[obsW+k] = 0
				}
				in[obsW+a] = 1
				_ = pair.ForwardVecInto(make([]float32, 1), in)
			}
		}
	})
}
