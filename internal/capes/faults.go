package capes

import (
	"fmt"
	"math"
	"sync"
)

// FaultInjector is the engine's deterministic fault hook, the DRL-engine
// counterpart of the transport layer's faultnet proxy: tests (and the
// supervisor chaos suite) arm it to produce exactly the failures the
// self-healing layer must absorb — a poisoned train step (NaN loss), a
// panic inside Tick, or a tick frozen mid-flight. A nil injector costs
// one pointer compare on the tick path; every armed fault is one-shot,
// so a session that recovers (rollback, engine rebuild) does not re-trip
// on the same injection.
type FaultInjector struct {
	mu         sync.Mutex
	poisonStep int64         // poison parameters before this train step (0 = disarmed)
	panicTick  int64         // panic at the first Tick(now >= panicTick) (0 = disarmed)
	freeze     chan struct{} // when non-nil, the next Tick blocks until it is closed
}

// PoisonTrainStep arms a one-shot parameter poisoning: immediately
// before the train step that would become global step `step` (or the
// first one after it), a NaN is written into the online network's
// parameter arena, so that step's forward pass produces a non-finite
// loss and ComputeGradients trips the PR 3 guard before the optimizer
// runs. step must be positive.
func (f *FaultInjector) PoisonTrainStep(step int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.poisonStep = step
}

// PanicAtTick arms a one-shot panic at the top of the first engine tick
// with now >= tick.
func (f *FaultInjector) PanicAtTick(tick int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.panicTick = tick
}

// FreezeNextTick arms a one-shot tick freeze: the next Tick blocks at
// its top — holding the engine lock, exactly like a wedged collector
// would — until the returned release func is called.
// release is idempotent and safe to call from any goroutine.
func (f *FaultInjector) FreezeNextTick() (release func()) {
	ch := make(chan struct{})
	f.mu.Lock()
	f.freeze = ch
	f.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

// beforeTick runs at the top of Engine.Tick with the engine lock held:
// it services an armed freeze (blocking) and an armed panic, each
// exactly once.
func (f *FaultInjector) beforeTick(now int64) {
	f.mu.Lock()
	freeze := f.freeze
	if freeze != nil {
		f.freeze = nil
	}
	doPanic := f.panicTick != 0 && now >= f.panicTick
	if doPanic {
		f.panicTick = 0
	}
	f.mu.Unlock()
	if freeze != nil {
		<-freeze
	}
	if doPanic {
		panic(fmt.Sprintf("capes: injected panic at tick %d", now))
	}
}

// takePoison reports (once) whether the train step about to run should
// see poisoned parameters.
func (f *FaultInjector) takePoison(nextStep int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.poisonStep != 0 && nextStep >= f.poisonStep {
		f.poisonStep = 0
		return true
	}
	return false
}

// SetFaultInjector installs (or, with nil, removes) the engine's fault
// hook. Intended for tests and the supervisor chaos suite only.
func (e *Engine) SetFaultInjector(f *FaultInjector) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.faults = f
}

// poisonParamsLocked corrupts the online network in the smallest way
// that still trips the divergence guard: one NaN parameter. The next
// forward pass propagates it into the Q-values and the minibatch loss.
func (e *Engine) poisonParamsLocked() {
	e.agent.Online.FlatParams()[0] = EnginePrecision(math.NaN())
}
