package capes

// Training telemetry: a bounded, alloc-free time series of the signals
// that show whether a session is *learning* — the reward the objective
// sees, the training loss, the exploration rate and the action mix —
// sampled every Config.HistoryEvery ticks under the engine mutex. The
// ring is the data source behind capesd's /sessions/{name}/history and
// /chart endpoints, capes-inspect -watch, and the convergence suite's
// trajectory files; it is snapshotted into checkpoints so a restored
// session keeps its curves.

// HistoryPoint is one telemetry sample. Counters (TrainSteps,
// RandomActions, CalcActions) are cumulative since engine start, so
// consumers can difference adjacent points for rates.
type HistoryPoint struct {
	Tick          int64   `json:"tick"`
	Reward        float64 `json:"reward"`  // objective of the latest collected frame
	Loss          float64 `json:"loss"`    // EWMA-smoothed prediction error (Figure 5)
	TDErrEMA      float64 `json:"td_err"`  // EWMA of the per-batch RMS TD error
	Epsilon       float64 `json:"epsilon"` // exploration rate at this tick
	TrainSteps    int64   `json:"train_steps"`
	RandomActions int64   `json:"random_actions"`
	CalcActions   int64   `json:"calc_actions"`
}

// History is a fixed-capacity ring of HistoryPoints. The zero value is
// unusable; make one with newHistory. Record never allocates after
// construction — the engine calls it on the tick path — and callers
// own synchronization (the engine records and snapshots under its
// mutex).
type History struct {
	buf   []HistoryPoint
	start int // index of the oldest point
	n     int // number of valid points
}

func newHistory(capacity int) *History {
	if capacity <= 0 {
		capacity = 1
	}
	return &History{buf: make([]HistoryPoint, capacity)}
}

// Record appends a point, overwriting the oldest when full. 0 allocs.
func (h *History) Record(p HistoryPoint) {
	if h.n < len(h.buf) {
		h.buf[(h.start+h.n)%len(h.buf)] = p
		h.n++
		return
	}
	h.buf[h.start] = p
	h.start = (h.start + 1) % len(h.buf)
}

// Len returns the number of retained points.
func (h *History) Len() int { return h.n }

// at returns the i-th retained point, oldest first.
func (h *History) at(i int) HistoryPoint {
	return h.buf[(h.start+i)%len(h.buf)]
}

// Last returns the newest point (zero value when empty).
func (h *History) Last() HistoryPoint {
	if h.n == 0 {
		return HistoryPoint{}
	}
	return h.at(h.n - 1)
}

// Since returns a copy of every point with Tick > cursor, oldest first.
// Pass a negative cursor for the full retained window. Ticks are
// recorded monotonically, so the suffix is found by binary search.
func (h *History) Since(cursor int64) []HistoryPoint {
	// First index with Tick > cursor.
	lo, hi := 0, h.n
	for lo < hi {
		mid := (lo + hi) / 2
		if h.at(mid).Tick > cursor {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == h.n {
		return nil
	}
	out := make([]HistoryPoint, h.n-lo)
	for i := range out {
		out[i] = h.at(lo + i)
	}
	return out
}

// Snapshot returns a copy of the full retained window, oldest first.
func (h *History) Snapshot() []HistoryPoint { return h.Since(-1 << 62) }

// restore replaces the ring contents with the given points (oldest
// first), keeping the newest Cap() of them — the checkpoint-restore
// path.
func (h *History) restore(pts []HistoryPoint) {
	h.start, h.n = 0, 0
	if len(pts) > len(h.buf) {
		pts = pts[len(pts)-len(h.buf):]
	}
	h.n = copy(h.buf, pts)
}
