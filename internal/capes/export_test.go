package capes

// DivergenceTrips returns how many times the guard has tripped over the
// engine's lifetime (clears do not reset it).
func (e *Engine) DivergenceTrips() int64 {
	e.divMu.Lock()
	defer e.divMu.Unlock()
	return e.divTrips
}

// ActionHistory returns a deep copy of the most recent applied actions
// (oldest first), up to the engine's history capacity.
func (e *Engine) ActionHistory() []ActionRecord {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := newActionRing(e.historyLen, len(e.current))
	for i := range out {
		src := &e.history[(e.historyStart+i)%len(e.history)]
		out[i].Tick, out[i].Action = src.Tick, src.Action
		copy(out[i].Values, src.Values)
	}
	return out
}

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stopped
}

// LastAction returns the most recent action id.
func (e *Engine) LastAction() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastAction
}
