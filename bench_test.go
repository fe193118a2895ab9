// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4), one benchmark per artifact, plus ablation benches for
// the design decisions called out in DESIGN.md §4.
//
// Each figure bench runs the corresponding experiment at a reduced scale
// (BenchScale) so `go test -bench=.` completes on a laptop; the printed
// rows have the same schema as the paper's figures. cmd/capes-bench runs
// the same runners at any scale (use --scale 1.0 for the full 12/24/70
// hour sessions) and is what EXPERIMENTS.md numbers come from.
package capes_test

import (
	"math/rand"
	"os"
	"testing"

	"capes/internal/capes"
	"capes/internal/experiment"
	"capes/internal/nn"
	"capes/internal/replay"
	"capes/internal/rl"
	"capes/internal/workload"
)

// BenchScale is the session-duration scale used by the figure benches
// (1.0 = the paper's wall-clock schedule).
const BenchScale = 0.05

func benchOptions() experiment.Options {
	o := experiment.DefaultOptions()
	o.Scale = BenchScale
	return o
}

// BenchmarkTable1Hyperparameters regenerates Table 1 and asserts the
// values match the paper.
func BenchmarkTable1Hyperparameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := capes.DefaultHyperparameters()
		if h.DiscountRate != 0.99 || h.MinibatchSize != 32 || h.TargetUpdateRate != 0.01 ||
			h.EpsilonInitial != 1.0 || h.EpsilonFinal != 0.05 || h.AdamLearningRate != 1e-4 {
			b.Fatal("hyperparameters deviate from Table 1")
		}
		if i == 0 {
			experiment.WriteTable1(os.Stdout, h)
		}
	}
}

// BenchmarkFig2RandomRW regenerates Figure 2: the five random R/W ratios,
// baseline vs 12 h vs 24 h of training.
func BenchmarkFig2RandomRW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFig2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiment.WriteFig2(os.Stdout, rows)
			// Report the headline number: the write-heavy (1:9) gain.
			b.ReportMetric(rows[4].Gain24Pct, "gain1:9_%")
			b.ReportMetric(rows[0].Gain24Pct, "gain9:1_%")
		}
	}
}

// BenchmarkFig3FileserverSeqWrite regenerates Figure 3.
func BenchmarkFig3FileserverSeqWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFig3(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiment.WriteFig3(os.Stdout, rows)
			b.ReportMetric(rows[0].GainPct, "fileserver_gain_%")
			b.ReportMetric(rows[1].GainPct, "seqwrite_gain_%")
		}
	}
}

// BenchmarkFig4Overfitting regenerates Figure 4: three tuned-vs-baseline
// sessions with the storage layout perturbed between them.
func BenchmarkFig4Overfitting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sessions, err := experiment.RunFig4(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiment.WriteFig4(os.Stdout, sessions)
			for k, s := range sessions {
				b.ReportMetric(s.GainPct, []string{"s1_gain_%", "s2_gain_%", "s3_gain_%"}[k])
			}
		}
	}
}

// BenchmarkFig5PredictionError regenerates Figure 5: prediction error
// over the training session (must decrease after warm-up).
func BenchmarkFig5PredictionError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiment.WriteFig5(os.Stdout, res)
			b.ReportMetric(res.EarlyMean, "early_loss")
			b.ReportMetric(res.LateMean, "late_loss")
		}
	}
}

// BenchmarkFig6TrainingImpact regenerates Figure 6: a 70-hour training
// session's overall throughput vs three baselines.
func BenchmarkFig6TrainingImpact(b *testing.B) {
	o := benchOptions()
	o.Scale = BenchScale / 2 // 70 simulated hours is the longest session
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig6(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiment.WriteFig6(os.Stdout, res)
			b.ReportMetric(res.RatioVsMeanBaseline, "training/baseline")
		}
	}
}

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

// BenchmarkTable2Rows regenerates the remaining Table 2 measurements.
func BenchmarkTable2Rows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTable2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiment.WriteTable2(os.Stdout, res)
			b.ReportMetric(res.TrainStepSeconds, "train_step_s")
			b.ReportMetric(res.AvgMessageBytes, "msg_B")
			b.ReportMetric(float64(res.ModelBytes)/1e6, "model_MB")
		}
	}
}

// BenchmarkComparisonTuners pits CAPES against the static default,
// hill-climbing and random search (the §6 future-work comparison).
func BenchmarkComparisonTuners(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunComparison(benchOptions(), func(seed int64) workload.Generator {
			return workload.NewRandRW(1, 9, seed)
		}, 12)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiment.WriteComparison(os.Stdout, rows)
			for _, r := range rows {
				if r.Tuner == "capes" {
					b.ReportMetric(r.GainPct, "capes_gain_%")
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4). Each trains a DQN on the same 1-D hill-climb
// task (a distilled congestion-window surface) and reports how close the
// learned greedy policy's operating point lands to the optimum.

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
		MinibatchSize: 32, GradientClip: 10, UseTargetNet: true}
	mutate(&cfg)
	db, err := replay.New(replay.Config{FrameWidth: 2, StackTicks: stack})
	if err != nil {
		b.Fatal(err)
	}
	net := nn.NewMLP[float64](rng, nn.ActTanh, 2*stack, 24, 24, 3)
	eps := &rl.EpsilonSchedule{Initial: 1, Final: 0.05, AnnealTicks: ticks / 2, BumpValue: 0.2}
	agent, err := rl.NewAgentWithNetwork(cfg, eps, net, rng)
	if err != nil {
		b.Fatal(err)
	}
	rf := func(cur, next replay.Frame) float64 { return f(next[0]) - f(cur[0]) }
	obsOf := func(t int64) []float64 {
		obs := make([]float64, db.ObservationWidth())
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
			batch := new(replay.Batch[float64])
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

func sequentialBatch(db *replay.DB, end int64, n int, rf replay.RewardFunc) (*replay.Batch[float64], error) {
	w := db.ObservationWidth()
	b := &replay.Batch[float64]{
		States:     make([]float64, n*w),
		NextStates: make([]float64, n*w),
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
		b.Rewards = append(b.Rewards, rf(cur, next))
	}
	return b, nil
}

// BenchmarkAblationTargetNetwork compares soft-update vs no target net.
func BenchmarkAblationTargetNetwork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationRun(b, 42, func(c *rl.Config) {}, 1, true)
		without := ablationRun(b, 42, func(c *rl.Config) { c.UseTargetNet = false }, 1, true)
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
		o := benchOptions()
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
	multi := nn.NewCAPESNetwork[float64](rng, obsW, nActions)
	// Pair network: observation + one-hot action → scalar.
	pair := nn.NewMLP[float64](rng, nn.ActTanh, obsW+nActions, obsW, obsW, 1)
	obs := make([]float64, obsW)
	for i := range obs {
		obs[i] = rng.Float64()
	}
	b.Run("single-pass-all-actions", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = multi.ForwardVecInto(make([]float64, nActions), obs)
		}
	})
	b.Run("per-action-passes", func(b *testing.B) {
		in := make([]float64, obsW+nActions)
		copy(in, obs)
		for i := 0; i < b.N; i++ {
			for a := 0; a < nActions; a++ {
				for k := 0; k < nActions; k++ {
					in[obsW+k] = 0
				}
				in[obsW+a] = 1
				_ = pair.ForwardVecInto(make([]float64, 1), in)
			}
		}
	})
}

// BenchmarkWhatIfSSD is the negative control: on an SSD-backed cluster
// there is almost no queueing headroom, so CAPES must find ≈0% gain —
// and must not regress the workload.
func BenchmarkWhatIfSSD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSSDControl(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiment.WriteSSDControl(os.Stdout, res)
			b.ReportMetric(res.GainPct, "ssd_gain_%")
		}
	}
}

// BenchmarkHypersearch exercises the §6 grid search over a small axis.
func BenchmarkHypersearch(b *testing.B) {
	axes := []experiment.HyperAxis{{Name: "learning_rate", Values: []float64{1e-3, 2e-3}}}
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunHypersearch(benchOptions(), axes, []int64{1}, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiment.WriteHypersearch(os.Stdout, res)
			b.ReportMetric(res.Best.AdamLearningRate, "best_lr")
		}
	}
}
