package experiment

import (
	"fmt"
	"io"

	"capes/internal/chart"
	"capes/internal/workload"
)

// The learning-quality harness: how fast a CAPES training session on a
// fixed simulated-cluster scenario drives the smoothed cluster
// throughput past a committed per-scenario threshold. It is the
// counterpart to the kernel perf bench suite — that one gates "did the
// code get slower", this one gates "did the agent get dumber".
//
// Everything is deterministic: a scenario run with the same seed and
// scale produces a byte-identical ConvergenceResult (and therefore
// byte-identical BENCH_convergence_<scenario>.json), which is what lets
// CI diff runs against committed baselines with a plain tolerance check.

// rewardEMAAlpha smooths the per-tick aggregate throughput before the
// threshold test. Per-tick throughput is noisy (workload demand noise,
// service noise); the threshold is meant to detect a sustained plateau,
// not one lucky tick. 0.02 ≈ a 50-tick horizon at CI scale.
const rewardEMAAlpha = 0.02

// curvePoints is the downsampled trajectory length kept in a
// ConvergenceResult — enough for a 64-column chart, small enough to
// commit as JSON.
const curvePoints = 128

// ConvergenceScenario is one committed learning-quality preset: a
// workload, a paper-scale training duration and the smoothed-throughput
// bar (MB/s) the agent must clear.
type ConvergenceScenario struct {
	Name      string
	Hours     float64 // paper-scale training duration
	Threshold float64 // smoothed aggregate throughput, MB/s
	Workload  func(seed int64) workload.Generator
}

// ConvergenceScenarios returns the committed presets. The thresholds
// sit between the untuned plateau and the trained plateau of each
// workload at the default seed/scale, so time-to-threshold lands mid-run
// and moves when learning speed moves (see .github/convergence-baseline.txt
// for the expected values).
func ConvergenceScenarios() []ConvergenceScenario {
	return []ConvergenceScenario{
		{
			// The paper's headline workload: write-heavy random I/O,
			// where congestion-window tuning pays the most. Untuned the
			// smoothed throughput idles near 4.6 MB/s; trained it
			// plateaus at ~7.1.
			Name:      "randrw-1-9",
			Hours:     12,
			Threshold: 6.8,
			Workload:  func(seed int64) workload.Generator { return workload.NewRandRW(1, 9, seed) },
		},
		{
			// Moderately write-heavy: a slower climb (≈3.1 MB/s at tick
			// 270) to a ~6.2 MB/s plateau, so the threshold falls later
			// in the run than randrw-1-9's.
			Name:      "randrw-1-4",
			Hours:     12,
			Threshold: 5.9,
			Workload:  func(seed int64) workload.Generator { return workload.NewRandRW(1, 4, seed) },
		},
		{
			// Fileserver personality: mixed op sizes, the noisiest curve;
			// ~6.0 MB/s cold, ~8.0 trained.
			Name:      "fileserver",
			Hours:     12,
			Threshold: 7.8,
			Workload:  func(seed int64) workload.Generator { return workload.NewFileserver(32, seed) },
		},
	}
}

// CurvePoint is one downsampled trajectory sample.
type CurvePoint struct {
	Tick   int64   `json:"tick"`
	Reward float64 `json:"reward"` // smoothed aggregate throughput, MB/s
}

// ConvergenceResult is one scenario's learning trajectory.
// TimeToThreshold is the start of the earliest window in which the smoothed reward held at or
// above Threshold for a tenth of the session (-1 when the run never
// converged) — a dwell requirement, because ε-greedy exploration can
// spike the EMA past the bar for a few dozen ticks long before the
// policy has actually settled. RewardAUC is the run's mean smoothed
// reward (the area under the curve normalized by ticks), which degrades
// when learning is slower even if the threshold is eventually reached.
type ConvergenceResult struct {
	Scenario        string       `json:"scenario"`
	Workload        string       `json:"workload"`
	Seed            int64        `json:"seed"`
	Scale           float64      `json:"scale"`
	Ticks           int64        `json:"ticks"`
	Threshold       float64      `json:"threshold"`
	Converged       bool         `json:"converged"`
	TimeToThreshold int64        `json:"time_to_threshold_ticks"`
	FinalReward     float64      `json:"final_reward"`
	RewardAUC       float64      `json:"reward_auc"`
	TrainSteps      int64        `json:"train_steps"`
	TrainErrors     int64        `json:"train_errors"`
	Curve           []CurvePoint `json:"curve"`
}

// RunConvergence trains one scenario to completion and returns its
// trajectory. The engine trains ε-greedy for the scenario's full duration — the
// run is NOT cut short at the threshold, so FinalReward and RewardAUC
// always describe the same number of ticks regardless of how fast the
// threshold fell.
func RunConvergence(sc ConvergenceScenario, o Options) (*ConvergenceResult, error) {
	gen := sc.Workload(o.Seed)
	env, err := NewEnv(o, gen)
	if err != nil {
		return nil, fmt.Errorf("convergence %s: %w", sc.Name, err)
	}
	env.Engine.SetTraining(true)
	env.Engine.SetTuning(true)
	env.Engine.SetExploit(false)

	n := env.Opts.Ticks(sc.Hours)
	sampleEvery := n / curvePoints
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	res := &ConvergenceResult{
		Scenario:        sc.Name,
		Workload:        gen.Name(),
		Seed:            o.Seed,
		Scale:           o.Scale,
		Ticks:           n,
		Threshold:       sc.Threshold,
		TimeToThreshold: -1,
	}
	dwell := n / 10
	if dwell < 1 {
		dwell = 1
	}
	ema := 0.0
	var auc float64
	runStart := int64(-1) // start of the current ≥threshold streak
	for i := int64(1); i <= n; i++ {
		env.Loop.Run(1)
		mbps := env.Cluster.AggregateThroughput() / 1e6
		if i == 1 {
			ema = mbps
		} else {
			ema = ema*(1-rewardEMAAlpha) + mbps*rewardEMAAlpha
		}
		auc += ema
		if ema >= sc.Threshold {
			if runStart < 0 {
				runStart = i
			}
			if res.TimeToThreshold < 0 && i-runStart+1 >= dwell {
				res.TimeToThreshold = runStart
				res.Converged = true
			}
		} else {
			runStart = -1
		}
		if i%sampleEvery == 0 || i == n {
			res.Curve = append(res.Curve, CurvePoint{Tick: i, Reward: ema})
		}
	}
	res.FinalReward = ema
	res.RewardAUC = auc / float64(n)
	st := env.Engine.Stats()
	res.TrainSteps = st.TrainSteps
	res.TrainErrors = st.TrainErrors
	return res, nil
}

// WriteConvergence renders a ConvergenceResult as a summary line plus a
// reward curve — the chart CI embeds into the job summary.
func WriteConvergence(w io.Writer, res *ConvergenceResult) {
	status := "DID NOT CONVERGE"
	if res.Converged {
		status = fmt.Sprintf("converged at tick %d", res.TimeToThreshold)
	}
	fmt.Fprintf(w, "%s (%s, seed %d, %d ticks): threshold %.4g MB/s — %s\n",
		res.Scenario, res.Workload, res.Seed, res.Ticks, res.Threshold, status)
	fmt.Fprintf(w, "  final %.4g MB/s  AUC %.4g MB/s  %d train steps (%d errors)\n\n",
		res.FinalReward, res.RewardAUC, res.TrainSteps, res.TrainErrors)
	ticks := make([]int64, len(res.Curve))
	reward := make([]float64, len(res.Curve))
	for i, p := range res.Curve {
		ticks[i] = p.Tick
		reward[i] = p.Reward
	}
	chart.LinePlot(w, fmt.Sprintf("smoothed reward, MB/s (threshold %.4g)", res.Threshold),
		ticks, reward, 64, 12)
}
