package experiment

import (
	"math/rand"

	"capes/internal/capes"
)

// The comparator tuning strategies from the related-work discussion
// (§5): the static default configuration, a one-shot hill-climbing
// search (the "search-based solutions" class — evaluated offline against
// the live system, step by step), and a random walker as a sanity floor. These are the "who wins" baselines for the
// benchmark harness; the paper's argument is that search-based one-shot
// tuning overfits the workload it was searched under, while CAPES keeps
// adapting.

// prober measures the target system's steady-state objective for a given
// parameter vector. Implementations typically apply the values, let the
// system settle, and average the objective over a window.
type prober func(values []float64) float64

// tunerResult is one tuner's outcome.
type tunerResult struct {
	Name   string
	Values []float64
	Score  float64
	Probes int // how many system evaluations were spent
}

// staticDefault returns the default parameter vector without probing — the
// "untailored performance tuning guide" every user falls back to (§2).
func staticDefault(space *capes.ActionSpace, probe prober) tunerResult {
	vals := space.Defaults()
	return tunerResult{Name: "static-default", Values: vals, Score: probe(vals), Probes: 1}
}

// hillClimb runs coordinate-wise greedy search: repeatedly try ±step on
// each tunable and move if the objective improves, until no single-step
// move helps or the probe budget is exhausted. This is the classic
// one-time search process of §5: effective on a fixed workload, but the
// result is a static setting.
func hillClimb(space *capes.ActionSpace, probe prober, maxProbes int) tunerResult {
	if maxProbes <= 0 {
		maxProbes = 100
	}
	cur := space.Defaults()
	curScore := probe(cur)
	probes := 1
	improved := true
	for improved && probes < maxProbes {
		improved = false
		for i := range space.Tunables {
			for _, action := range []int{space.IncreaseAction(i), space.DecreaseAction(i)} {
				if probes >= maxProbes {
					break
				}
				cand := space.Apply(nil, action, cur)
				if same(cand, cur) {
					continue // clamped at a range edge
				}
				s := probe(cand)
				probes++
				if s > curScore {
					cur, curScore = cand, s
					improved = true
					// Keep pushing in the winning direction.
					for probes < maxProbes {
						next := space.Apply(nil, action, cur)
						if same(next, cur) {
							break
						}
						ns := probe(next)
						probes++
						if ns <= curScore {
							break
						}
						cur, curScore = next, ns
					}
				}
			}
		}
	}
	return tunerResult{Name: "hill-climb", Values: cur, Score: curScore, Probes: probes}
}

// randomSearch samples parameter vectors uniformly from the valid ranges
// and keeps the best — the weakest member of the search-based family.
func randomSearch(space *capes.ActionSpace, probe prober, probes int, seed int64) tunerResult {
	if probes <= 0 {
		probes = 20
	}
	rng := rand.New(rand.NewSource(seed))
	best := space.Defaults()
	bestScore := probe(best)
	used := 1
	for used < probes {
		cand := make([]float64, len(space.Tunables))
		for i, t := range space.Tunables {
			// Sample on the step grid.
			steps := int((t.Max - t.Min) / t.Step)
			cand[i] = t.Min + float64(rng.Intn(steps+1))*t.Step
		}
		s := probe(cand)
		used++
		if s > bestScore {
			best, bestScore = cand, s
		}
	}
	return tunerResult{Name: "random-search", Values: best, Score: bestScore, Probes: used}
}

func same(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
