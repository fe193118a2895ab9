package capes

import "fmt"

// ActionChecker screens candidate actions before they are broadcast,
// "to rule out egregiously bad actions, such as setting the CPU clock
// rate to 0" (§3.7). The check receives the parameter vector the action
// would produce — an engine-owned buffer, valid only during the call;
// returning an error vetoes the action (the Interface Daemon substitutes
// NULL).
type ActionChecker func(proposed []float64) error

// NoopChecker accepts everything (the paper's evaluation ran without a
// checker).
func NoopChecker([]float64) error { return nil }

// RangeChecker vetoes values outside each tunable's valid range. The
// ActionSpace already clamps, so this only fires for externally supplied
// vectors — e.g. a controller restoring a stale checkpoint.
func RangeChecker(tunables []Tunable) ActionChecker {
	ts := append([]Tunable(nil), tunables...)
	return func(proposed []float64) error {
		if len(proposed) != len(ts) {
			return fmt.Errorf("capes: checker got %d values for %d tunables", len(proposed), len(ts))
		}
		for i, v := range proposed {
			if v < ts[i].Min || v > ts[i].Max {
				return fmt.Errorf("capes: %s=%v outside valid range [%v,%v]",
					ts[i].Name, v, ts[i].Min, ts[i].Max)
			}
		}
		return nil
	}
}

// MinimumChecker vetoes any vector whose idx-th value drops below min —
// the appendix's example: "we knew that the max_rpcs_in_flight ... should
// not be smaller than eight, then the valid range for the congestion
// window should start from nine" (§A.4).
func MinimumChecker(idx int, min float64) ActionChecker {
	return func(proposed []float64) error {
		if idx < 0 || idx >= len(proposed) {
			return fmt.Errorf("capes: checker index %d out of range", idx)
		}
		if proposed[idx] < min {
			return fmt.Errorf("capes: value %v at index %d below safe minimum %v", proposed[idx], idx, min)
		}
		return nil
	}
}

// ChainCheckers runs checkers in order, returning the first veto.
func ChainCheckers(checkers ...ActionChecker) ActionChecker {
	cs := append([]ActionChecker(nil), checkers...)
	return func(proposed []float64) error {
		for _, c := range cs {
			if err := c(proposed); err != nil {
				return err
			}
		}
		return nil
	}
}
