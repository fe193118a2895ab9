package capes

import (
	"fmt"
)

// Tunable describes one parameter CAPES may adjust (§3.7): a valid range
// and a tuning step size. "For instance, one can say that we need to tune
// the I/O size, which has a valid range from 1 KB to 256 KB, and a tuning
// step size of 1 KB."
type Tunable struct {
	Name    string
	Min     float64
	Max     float64
	Step    float64
	Default float64
}

// Validate checks the tunable definition.
func (t Tunable) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("capes: tunable needs a name")
	}
	if t.Max < t.Min {
		return fmt.Errorf("capes: tunable %s has inverted range [%v,%v]", t.Name, t.Min, t.Max)
	}
	if t.Step <= 0 {
		return fmt.Errorf("capes: tunable %s step must be positive", t.Name)
	}
	if t.Default < t.Min || t.Default > t.Max {
		return fmt.Errorf("capes: tunable %s default %v outside [%v,%v]", t.Name, t.Default, t.Min, t.Max)
	}
	return nil
}

// Clamp limits v to the tunable's range.
func (t Tunable) Clamp(v float64) float64 {
	if v < t.Min {
		return t.Min
	}
	if v > t.Max {
		return t.Max
	}
	return v
}

// ActionSpace maps between the DQN's discrete action ids and parameter
// adjustments. Per §3.7 the space has 2·k+1 actions for k tunables: a
// NULL action (id 0) plus decrease/increase by one step for each tunable.
type ActionSpace struct {
	Tunables []Tunable
}

// NewActionSpace validates the tunables and builds the space.
func NewActionSpace(tunables ...Tunable) (*ActionSpace, error) {
	if len(tunables) == 0 {
		return nil, fmt.Errorf("capes: need at least one tunable")
	}
	seen := map[string]bool{}
	for _, t := range tunables {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("capes: duplicate tunable %q", t.Name)
		}
		seen[t.Name] = true
	}
	return &ActionSpace{Tunables: append([]Tunable(nil), tunables...)}, nil
}

// NumActions returns 2·k+1.
func (s *ActionSpace) NumActions() int { return 2*len(s.Tunables) + 1 }

// NullAction is the action id that changes nothing.
const NullAction = 0

// decode returns the tunable index and direction for an action id, or
// (-1,false) for out-of-range ids.
func (s *ActionSpace) decode(action int) (idx int, up bool) {
	if action <= NullAction || action >= s.NumActions() {
		return -1, false
	}
	idx = (action - 1) / 2
	up = (action-1)%2 == 1
	return idx, up
}

// DecreaseAction returns the action id that lowers tunable idx.
func (s *ActionSpace) DecreaseAction(idx int) int { return 1 + 2*idx }

// IncreaseAction returns the action id that raises tunable idx.
func (s *ActionSpace) IncreaseAction(idx int) int { return 2 + 2*idx }

// Defaults returns the default value vector.
func (s *ActionSpace) Defaults() []float64 {
	vals := make([]float64, len(s.Tunables))
	for i, t := range s.Tunables {
		vals[i] = t.Default
	}
	return vals
}

// Apply writes the parameter vector that results from taking `action` at
// `current`, clamped to each tunable's valid range, into dst's storage
// and returns it: append(dst[:0], current...) with one value stepped, so
// a dst with room for every tunable is reused without allocating and a
// nil dst gets a fresh vector. dst must not share memory with current
// unless it is current itself (an in-place step). An invalid action id
// is treated as NULL.
func (s *ActionSpace) Apply(dst []float64, action int, current []float64) []float64 {
	if len(current) != len(s.Tunables) {
		panic(fmt.Sprintf("capes: Apply got %d values for %d tunables", len(current), len(s.Tunables)))
	}
	next := append(dst[:0], current...)
	idx, up := s.decode(action)
	if idx < 0 {
		return next
	}
	t := s.Tunables[idx]
	if up {
		next[idx] = t.Clamp(next[idx] + t.Step)
	} else {
		next[idx] = t.Clamp(next[idx] - t.Step)
	}
	return next
}

// LustreTunables returns the two parameters the evaluation tunes on every
// client (§4.1): max_rpc_in_flight and the I/O rate limit. Ranges follow
// the simulated cluster's valid ranges; the window default is Lustre's 8.
func LustreTunables() []Tunable {
	return []Tunable{
		{Name: "max_rpc_in_flight", Min: 1, Max: 256, Step: 4, Default: 8},
		{Name: "io_rate_limit", Min: 50, Max: 20000, Step: 500, Default: 20000},
	}
}
