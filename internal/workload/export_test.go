package workload

// PhaseName returns the active phase's name at a tick.
func (w *Switching) PhaseName(now int64) string { return w.current(now).Name() }

// SwitchedAt reports whether a phase boundary occurs exactly at tick now
// (used to trigger the ε bump).
func (w *Switching) SwitchedAt(now int64) bool {
	return now > 0 && now%w.PhaseTicks == 0 && len(w.Phases) > 1
}
