package experiment

import (
	"fmt"
	"io"

	"capes/internal/capes"
	"capes/internal/disk"
	"capes/internal/pilot"
	"capes/internal/workload"
)

// Extensions beyond the paper's evaluation: the §6 future-work items
// that are implementable without new hardware — hyperparameter grid
// search and an SSD negative control — plus their report writers.

// HypersearchResult is the ranked outcome of a grid search.
type HypersearchResult struct {
	Results []HyperResult
	Errs    []error
	Best    capes.Hyperparameters
}

// DefaultHypersearchAxes are the most influential DQN hyperparameters.
func DefaultHypersearchAxes() []HyperAxis {
	return []HyperAxis{
		{Name: "learning_rate", Values: []float64{5e-4, 2e-3, 8e-3}},
		{Name: "gamma", Values: []float64{0.9, 0.99}},
	}
}

// RunHypersearch grid-searches DQN hyperparameters using short training
// sessions on the 1:9 workload, scoring each point by tuned throughput
// (bytes/s). Expect gridpoints × seeds training sessions.
func RunHypersearch(o Options, axes []HyperAxis, seeds []int64, trainHours float64) (*HypersearchResult, error) {
	if len(axes) == 0 {
		axes = DefaultHypersearchAxes()
	}
	base := capes.DefaultHyperparameters().Scaled(o.Scale)
	base.TicksPerObservation = o.TicksPerObservation
	base.TrainEvery = o.TrainEvery
	eval := func(h capes.Hyperparameters, seed int64) (float64, error) {
		eo := o
		eo.Seed = seed
		eo.Hyper = &h
		env, err := NewEnv(eo, workload.NewRandRW(1, 9, seed+61))
		if err != nil {
			return 0, err
		}
		env.Train(trainHours)
		return pilot.Mean(env.MeasureTuned(0.5)), nil
	}
	results, errs := searchHyper(base, axes, eval, seeds)
	if len(results) == 0 {
		return nil, fmt.Errorf("experiment: hypersearch produced no results (%d errors)", len(errs))
	}
	best, err := applyHyper(base, results[0].Point)
	if err != nil {
		return nil, err
	}
	return &HypersearchResult{Results: results, Errs: errs, Best: best}, nil
}

// WriteHypersearch renders the grid-search ranking.
func WriteHypersearch(w io.Writer, r *HypersearchResult) {
	fmt.Fprintln(w, "Hyperparameter grid search (tuned throughput, MB/s)")
	for i, res := range r.Results {
		fmt.Fprintf(w, "  %2d. %-40s %8.2f\n", i+1, res.Point.String(), res.Score/1e6)
	}
	for _, err := range r.Errs {
		fmt.Fprintf(w, "  skipped: %v\n", err)
	}
}

// SSDControlResult is the negative-control outcome.
type SSDControlResult struct {
	Baseline CIValue
	Tuned    CIValue
	GainPct  float64
}

// RunSSDControl repeats the headline experiment on an SSD-backed
// cluster, where queueing gains are marginal: CAPES should find little
// to tune and, critically, not regress the workload. A reproduction
// whose tuner "wins" on hardware with no headroom would be overfitting
// its own simulator.
func RunSSDControl(o Options) (*SSDControlResult, error) {
	ssd := disk.DefaultSSD()
	o.Disk = &ssd
	// The operator guard is per-system (§A.4): on the SSD rig, rate
	// limits below peak per-client demand would strangle it, so the
	// known-bad region starts higher than on the HDD rig.
	if o.RateFloor == 0 {
		o.RateFloor = 8000
	}
	env, err := NewEnv(o, workload.NewRandRW(1, 9, o.Seed+71))
	if err != nil {
		return nil, err
	}
	base := env.MeasureBaseline(0.5)
	env.Train(12)
	tuned := env.MeasureTuned(0.5)
	res := &SSDControlResult{Baseline: summarize(base), Tuned: summarize(tuned)}
	res.GainPct = 100 * (res.Tuned.Mean/res.Baseline.Mean - 1)
	return res, nil
}

// WriteSSDControl renders the negative control.
func WriteSSDControl(w io.Writer, r *SSDControlResult) {
	fmt.Fprintln(w, "SSD negative control (MB/s, 95% CI)")
	fmt.Fprintf(w, "  baseline %8.2f ±%5.2f\n", mb(r.Baseline.Mean), mb(r.Baseline.CI))
	fmt.Fprintf(w, "  tuned    %8.2f ±%5.2f\n", mb(r.Tuned.Mean), mb(r.Tuned.CI))
	fmt.Fprintf(w, "  gain     %+.1f%% (expected ≈ 0: no queueing headroom on SSD)\n", r.GainPct)
}
