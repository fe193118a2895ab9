package sim

import "testing"

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.now != 0 {
		t.Fatalf("fresh clock at %d", c.now)
	}
	if got := c.Step(); got != 1 || c.now != 1 {
		t.Fatalf("Step = %d", got)
	}
}

func TestLoopOrderAndCount(t *testing.T) {
	l := NewLoop()
	var order []string
	var ticks []int64
	l.Register(tickerFunc(func(now int64) {
		order = append(order, "a")
		ticks = append(ticks, now)
	}))
	l.Register(tickerFunc(func(now int64) {
		order = append(order, "b")
	}))
	l.Run(3)
	if len(order) != 6 {
		t.Fatalf("order len = %d", len(order))
	}
	// Within a tick, registration order holds.
	for i := 0; i < 6; i += 2 {
		if order[i] != "a" || order[i+1] != "b" {
			t.Fatalf("order = %v", order)
		}
	}
	if ticks[0] != 1 || ticks[2] != 3 {
		t.Fatalf("ticks = %v", ticks)
	}
	if l.Clock.now != 3 {
		t.Fatalf("clock = %d", l.Clock.now)
	}
}

// tickerFunc adapts a function to the Ticker interface.
type tickerFunc func(now int64)

func (f tickerFunc) Tick(now int64) { f(now) }
