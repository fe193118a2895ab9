package experiment

import (
	"fmt"
	"sort"

	"capes/internal/capes"
)

// The systematic hyperparameter optimization the paper defers to future
// work (§6: "We will also need to use a systematic approach to
// hyperparameter optimization, such as using grid search"). It enumerates a cartesian grid over named
// hyperparameter axes, scores each point with a caller-provided
// evaluation function (typically a short training session), averages
// over seeds, and ranks the results.

// HyperAxis is one hyperparameter dimension of the grid.
type HyperAxis struct {
	Name   string // one of the names accepted by applyHyper
	Values []float64
}

// HyperPoint assigns a value to each axis.
type HyperPoint map[string]float64

// HyperResult is one evaluated grid point.
type HyperResult struct {
	Point HyperPoint
	Score float64 // mean across seeds; higher is better
}

// hyperEvalFunc scores a hyperparameter setting (e.g. tuned throughput
// after a short session). It must be deterministic given (h, seed).
type hyperEvalFunc func(h capes.Hyperparameters, seed int64) (float64, error)

// hyperGrid expands axes into the full cartesian product.
func hyperGrid(axes []HyperAxis) []HyperPoint {
	points := []HyperPoint{{}}
	for _, ax := range axes {
		if len(ax.Values) == 0 {
			continue
		}
		next := make([]HyperPoint, 0, len(points)*len(ax.Values))
		for _, p := range points {
			for _, v := range ax.Values {
				np := HyperPoint{}
				for k, pv := range p {
					np[k] = pv
				}
				np[ax.Name] = v
				next = append(next, np)
			}
		}
		points = next
	}
	return points
}

// applyHyper sets the named hyperparameters on a copy of h. Supported names:
// learning_rate, gamma, target_update_rate, minibatch_size,
// epsilon_final, epsilon_bump, exploration_period, ticks_per_observation,
// train_every, gradient_clip.
func applyHyper(h capes.Hyperparameters, p HyperPoint) (capes.Hyperparameters, error) {
	for name, v := range p {
		switch name {
		case "learning_rate":
			h.AdamLearningRate = v
		case "gamma":
			h.DiscountRate = v
		case "target_update_rate":
			h.TargetUpdateRate = v
		case "minibatch_size":
			h.MinibatchSize = int(v)
		case "epsilon_final":
			h.EpsilonFinal = v
		case "epsilon_bump":
			h.EpsilonBump = v
		case "exploration_period":
			h.ExplorationPeriod = int64(v)
		case "ticks_per_observation":
			h.TicksPerObservation = int(v)
		case "train_every":
			h.TrainEvery = int64(v)
		case "gradient_clip":
			h.GradientClip = v
		default:
			return h, fmt.Errorf("hypersearch: unknown hyperparameter %q", name)
		}
	}
	if err := h.Validate(); err != nil {
		return h, fmt.Errorf("hypersearch: point %v: %w", p, err)
	}
	return h, nil
}

// searchHyper evaluates every grid point with every seed and returns results
// sorted best-first. Points that fail Validate are skipped with their
// error collected into errs.
func searchHyper(base capes.Hyperparameters, axes []HyperAxis, eval hyperEvalFunc, seeds []int64) (results []HyperResult, errs []error) {
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	for _, p := range hyperGrid(axes) {
		h, err := applyHyper(base, p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var sum float64
		ok := true
		for _, seed := range seeds {
			s, err := eval(h, seed)
			if err != nil {
				errs = append(errs, fmt.Errorf("hypersearch: eval %v seed %d: %w", p, seed, err))
				ok = false
				break
			}
			sum += s
		}
		if !ok {
			continue
		}
		results = append(results, HyperResult{Point: p, Score: sum / float64(len(seeds))})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Score > results[j].Score })
	return results, errs
}

// String renders a point deterministically (sorted keys).
func (p HyperPoint) String() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%g", k, p[k])
	}
	return s + "}"
}
