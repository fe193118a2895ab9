// Package sim provides the virtual time base shared by the cluster
// simulator and CAPES. One tick is one simulated second, matching the
// paper's 1 s sampling-tick and action-tick lengths (Table 1). Running on
// virtual time lets a "12-hour" training session execute in minutes while
// preserving every schedule the paper defines in seconds or hours.
package sim

// Clock is a monotonically advancing virtual clock counted in ticks
// (simulated seconds).
type Clock struct {
	now int64
}

// NewClock returns a clock starting at tick 0.
func NewClock() *Clock { return &Clock{} }

// Step moves the clock forward by one tick and returns the new time.
func (c *Clock) Step() int64 {
	c.now++
	return c.now
}

// Ticker is anything advanced once per simulated second.
type Ticker interface {
	// Tick advances the component to virtual time `now`.
	Tick(now int64)
}

// Loop drives a set of Tickers for n ticks in registration order. It is
// the single-threaded deterministic scheduler used by the in-process
// experiments; the distributed deployment replaces it with real daemons.
type Loop struct {
	Clock   *Clock
	tickers []Ticker
}

// NewLoop returns a Loop over a fresh clock.
func NewLoop() *Loop { return &Loop{Clock: NewClock()} }

// Register appends a Ticker; order of registration is execution order
// within each tick (simulator first, then monitoring, then training).
func (l *Loop) Register(t Ticker) { l.tickers = append(l.tickers, t) }

// Run advances n ticks, invoking every Ticker once per tick.
func (l *Loop) Run(n int64) {
	for i := int64(0); i < n; i++ {
		now := l.Clock.Step()
		for _, t := range l.tickers {
			t.Tick(now)
		}
	}
}
