package agent

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"capes/internal/faultnet"
	"capes/internal/wire"
)

// fastOpts are agent reconnect options tuned for tests.
func fastOpts() Opts {
	return Opts{
		BackoffMin:        5 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
		DialTimeout:       2 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		Seed:              1,
	}
}

// TestAgentReconnectsAcrossConnectionKill is the scripted reconnect
// story: kill the link, watch the agent report ErrReconnecting, restore
// the link, and verify epoch-isolated frame assembly plus an open
// Actions channel on the far side.
func TestAgentReconnectsAcrossConnectionKill(t *testing.T) {
	d, frames := startDaemon(t, 1, 3)
	p, err := faultnet.New("127.0.0.1:0", d.Addr(), faultnet.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	a, err := DialOpts(p.Addr(), 0, 3, "monitor+control", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if got := a.Epoch(); got != 1 {
		t.Fatalf("initial epoch = %d", got)
	}
	if err := a.SendIndicators(1, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(frames()) == 1 }, "first frame")

	// Pull the cable and keep it pulled: sends must start returning
	// ErrReconnecting (typed, not a raw socket error).
	p.SetHold(true)
	p.KillActive()
	waitFor(t, func() bool {
		err := a.SendIndicators(2, []float64{1, 2, 3})
		return errors.Is(err, ErrReconnecting)
	}, "typed ErrReconnecting during outage")

	// Plug it back in: the agent must come back with a bumped epoch.
	p.SetHold(false)
	waitFor(t, func() bool { return a.Connected() && a.Epoch() >= 2 }, "reconnect")
	if a.Reconnects() < 1 {
		t.Fatalf("reconnects = %d", a.Reconnects())
	}

	// The fresh encoder re-sends the full vector; the daemon's fresh
	// decoder reconstructs it exactly (no stale differential state).
	waitFor(t, func() bool {
		if err := a.SendIndicators(10, []float64{7, 8, 9}); err != nil {
			return false
		}
		fs := frames()
		return len(fs) >= 2 && fs[len(fs)-1][0] == 7 && fs[len(fs)-1][1] == 8 && fs[len(fs)-1][2] == 9
	}, "post-reconnect frame")

	// Actions() stayed open across the reconnect and still delivers.
	waitFor(t, func() bool { return d.NumControlAgents() == 1 }, "control re-registration")
	d.BroadcastAction(11, 1, []float64{4, 5})
	select {
	case act := <-a.Actions():
		if act.Tick != 11 {
			t.Fatalf("action = %+v", act)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Actions channel dead after reconnect")
	}

	st := d.TransportStats()
	if st.Reconnects < 1 {
		t.Fatalf("daemon counted %d reconnects", st.Reconnects)
	}
}

// TestEpochIsolationDropsStaleIndicators drives two raw connections for
// the same node: the daemon must only accept differential state from
// the current epoch's connection.
func TestEpochIsolationDropsStaleIndicators(t *testing.T) {
	d, frames := startDaemon(t, 1, 2)

	hello := func(conn net.Conn, epoch uint64) {
		t.Helper()
		if err := wire.WriteMsg(conn, &wire.Envelope{Type: wire.MsgHello, Hello: &wire.Hello{
			NodeID: 0, Role: "monitor", NumPIs: 2, Epoch: epoch, Proto: wire.ProtoVersion,
		}}); err != nil {
			t.Fatal(err)
		}
		ack, err := wire.ReadMsg(conn)
		if err != nil || ack.Type != wire.MsgAck || !ack.Ack.OK {
			t.Fatalf("registration failed: %v %+v", err, ack)
		}
	}
	send := func(conn net.Conn, epoch uint64, tick int64, vals []float64) {
		t.Helper()
		idx := make([]int, len(vals))
		for i := range idx {
			idx[i] = i
		}
		if err := wire.WriteMsg(conn, &wire.Envelope{Type: wire.MsgIndicators, Indicators: &wire.Indicators{
			NodeID: 0, Tick: tick, Epoch: epoch, Indices: idx, Values: vals,
		}}); err != nil {
			t.Fatal(err)
		}
	}

	// Epoch 1 session.
	old, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	hello(old, 1)
	send(old, 1, 1, []float64{1, 1})
	waitFor(t, func() bool { return len(frames()) == 1 }, "epoch-1 frame")

	// Epoch 2 session takes over the node (the old conn stays open —
	// a zombie that has not noticed it died).
	fresh, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	hello(fresh, 2)
	send(fresh, 2, 2, []float64{2, 2})
	waitFor(t, func() bool { return len(frames()) == 2 }, "epoch-2 frame")

	// The zombie fires stale epoch-1 state: it must be dropped, not
	// assembled into a frame.
	send(old, 1, 3, []float64{666, 666})
	waitFor(t, func() bool { return d.TransportStats().StaleIndicators >= 1 }, "stale drop accounting")
	send(fresh, 2, 4, []float64{4, 4})
	waitFor(t, func() bool { return len(frames()) == 3 }, "epoch-2 frame after stale attempt")
	for _, f := range frames() {
		if f[0] == 666 {
			t.Fatal("stale epoch-1 indicators leaked into a frame")
		}
	}

	// And a zombie re-Hello with an older epoch is refused outright.
	stale, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	if err := wire.WriteMsg(stale, &wire.Envelope{Type: wire.MsgHello, Hello: &wire.Hello{
		NodeID: 0, Role: "monitor", NumPIs: 2, Epoch: 1, Proto: wire.ProtoVersion,
	}}); err != nil {
		t.Fatal(err)
	}
	ack, err := wire.ReadMsg(stale)
	if err != nil || ack.Ack == nil || ack.Ack.OK {
		t.Fatalf("stale-epoch hello must be rejected, got %+v err %v", ack, err)
	}
}

// TestPartialFrameGapFill: a node dies mid-stream; ticks it misses are
// gap-filled from its latest known vector after the deadline, so the
// control loop keeps ticking.
func TestPartialFrameGapFill(t *testing.T) {
	var mu sync.Mutex
	var got []emission
	d, err := NewDaemonOpts("127.0.0.1:0", 2, 2, func(tick int64, f []float64) {
		mu.Lock()
		got = append(got, emission{tick, append([]float64(nil), f...)})
		mu.Unlock()
	}, nil, DaemonOpts{
		PartialFrameTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	snapshot := func() []emission {
		mu.Lock()
		defer mu.Unlock()
		return append([]emission(nil), got...)
	}

	a0, err := DialOpts(d.Addr(), 0, 2, "monitor", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer a0.Close()
	a1, err := DialOpts(d.Addr(), 1, 2, "monitor", fastOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Tick 1 completes normally.
	a0.SendIndicators(1, []float64{10, 11})
	a1.SendIndicators(1, []float64{20, 21})
	waitFor(t, func() bool { return len(snapshot()) == 1 }, "complete tick 1")

	// Node 1 dies; node 0 keeps reporting ticks 2..4.
	a1.Close()
	for tick := int64(2); tick <= 4; tick++ {
		if err := a0.SendIndicators(tick, []float64{10 * float64(tick), 11}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(snapshot()) == 4 }, "gap-filled ticks 2..4")

	for _, e := range snapshot()[1:] {
		if e.frame[2] != 20 || e.frame[3] != 21 {
			t.Fatalf("tick %d: node-1 slot = %v, want gap-fill from latest (20, 21)", e.tick, e.frame[2:])
		}
	}
	st := d.TransportStats()
	if st.CompleteFrames != 1 || st.PartialFrames != 3 || st.GapFilledSlots != 3 || st.DroppedTicks != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TicksStarted != st.CompleteFrames+st.PartialFrames+st.DroppedTicks+int64(st.PendingTicks) {
		t.Fatalf("accounting broken: %+v", st)
	}
}

// TestSeenMapBoundedUnderPermanentlyMissingNode is the regression test
// for the unbounded Daemon.seen leak: a node that never reports must
// not grow the assembly map without bound, and because nothing was ever
// received from it the affected ticks are dropped with accounting (not
// fabricated from zeros).
func TestSeenMapBoundedUnderPermanentlyMissingNode(t *testing.T) {
	const maxPending = 8
	d, err := NewDaemonOpts("127.0.0.1:0", 2, 1, func(int64, []float64) {}, nil, DaemonOpts{
		// Sweeper effectively off: only the MaxPendingTicks bound acts.
		PartialFrameTimeout: time.Hour,
		MaxPendingTicks:     maxPending,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	a0, err := DialOpts(d.Addr(), 0, 1, "monitor", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer a0.Close()

	const ticks = 100
	for tick := int64(1); tick <= ticks; tick++ {
		if err := a0.SendIndicators(tick, []float64{float64(tick)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return d.TransportStats().TicksStarted == ticks }, "all ticks ingested")

	st := d.TransportStats()
	if st.PendingTicks > maxPending {
		t.Fatalf("seen map grew to %d pending ticks, bound is %d", st.PendingTicks, maxPending)
	}
	if st.DroppedTicks < ticks-maxPending {
		t.Fatalf("dropped %d ticks, want ≥ %d", st.DroppedTicks, ticks-maxPending)
	}
	if st.TicksStarted != st.CompleteFrames+st.PartialFrames+st.DroppedTicks+int64(st.PendingTicks) {
		t.Fatalf("accounting broken: %+v", st)
	}
}

// TestForcedTickIsEmittedOnce: node 0 runs more than MaxPendingTicks
// ahead of node 1, so the oldest pending ticks are force-resolved as
// gap-filled frames. Node 1's late messages for those ticks must not
// start them again: every tick reaches the sink at most once, and the
// late messages still feed node 1's vector (its differential stream
// stays in step, so the frames it completes carry its own values).
func TestForcedTickIsEmittedOnce(t *testing.T) {
	const ticks, maxPending = 300, 256
	var mu sync.Mutex
	emitted := map[int64][]float64{}
	repeats := 0
	d, err := NewDaemonOpts("127.0.0.1:0", 2, 1, func(tick int64, f []float64) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := emitted[tick]; dup {
			repeats++
		}
		emitted[tick] = f
	}, nil, DaemonOpts{
		// Sweeper effectively off: only the MaxPendingTicks bound acts.
		PartialFrameTimeout: time.Hour,
		MaxPendingTicks:     maxPending,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var agents [2]*NodeAgent
	for n := range agents {
		if agents[n], err = DialOpts(d.Addr(), n, 1, "monitor", fastOpts()); err != nil {
			t.Fatal(err)
		}
		defer agents[n].Close()
	}
	send := func(node int, tick int64) {
		t.Helper()
		if err := agents[node].SendIndicators(tick, []float64{float64(1000*node) + float64(tick)}); err != nil {
			t.Fatal(err)
		}
	}
	// Both nodes report tick 1, so node 1's slot can be gap-filled.
	send(0, 1)
	send(1, 1)
	waitFor(t, func() bool { return d.TransportStats().CompleteFrames == 1 }, "tick 1 complete")
	for tick := int64(2); tick <= ticks; tick++ {
		send(0, tick)
	}
	waitFor(t, func() bool { return d.TransportStats().TicksStarted >= ticks }, "node 0's ticks ingested")
	for tick := int64(2); tick <= ticks; tick++ {
		send(1, tick)
	}
	forced := int64(ticks - 1 - maxPending) // ticks 2..44
	waitFor(t, func() bool {
		st := d.TransportStats()
		mu.Lock()
		delivered := int64(len(emitted) + repeats)
		mu.Unlock()
		return st.CompleteFrames == ticks-forced && delivered == st.CompleteFrames+st.PartialFrames
	}, "node 1's ticks ingested and delivered")

	st := d.TransportStats()
	mu.Lock()
	defer mu.Unlock()
	if repeats != 0 {
		t.Fatalf("%d ticks emitted more than once (stats %+v)", repeats, st)
	}
	if len(emitted) != ticks {
		t.Fatalf("emitted %d distinct ticks, want %d", len(emitted), ticks)
	}
	if st.TicksStarted != ticks || st.PartialFrames != forced || st.LateIndicators != forced || st.PendingTicks != 0 {
		t.Fatalf("stats = %+v, want %d started, %d partial, %d late", st, ticks, forced, forced)
	}
	if st.TicksStarted != st.CompleteFrames+st.PartialFrames+st.DroppedTicks+int64(st.PendingTicks) {
		t.Fatalf("accounting broken: %+v", st)
	}
	// A frame carries each node's latest vector when it resolves; node
	// 1's slot holds its own value for the ticks it completed and its
	// tick-1 value where it was gap-filled.
	for tick := int64(2); tick <= ticks; tick++ {
		want := 1001.0
		if tick > 1+forced {
			want = 1000 + float64(tick)
		}
		if f := emitted[tick]; f[1] != want {
			t.Fatalf("tick %d: node 1 slot %v, want %v", tick, f[1], want)
		}
	}
}

// TestSendWorkloadChangeRespectsLifecycle: the satellite fix — it used
// to write to the raw conn even after Close.
func TestSendWorkloadChangeRespectsLifecycle(t *testing.T) {
	d, _ := startDaemon(t, 1, 2)
	p, err := faultnet.New("127.0.0.1:0", d.Addr(), faultnet.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a, err := DialOpts(p.Addr(), 0, 2, "monitor", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SendWorkloadChange(1, "fileserver"); err != nil {
		t.Fatal(err)
	}
	// During an outage: typed ErrReconnecting.
	p.SetHold(true)
	p.KillActive()
	waitFor(t, func() bool {
		return errors.Is(a.SendWorkloadChange(2, "seqwrite"), ErrReconnecting)
	}, "workload change returns ErrReconnecting during outage")
	// After Close: typed ErrClosed.
	a.Close()
	if err := a.SendWorkloadChange(3, "randrw"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := a.SendIndicators(3, []float64{1, 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestBroadcastDeadlinesOutStalledControlAgent: a control agent whose
// receiver froze (full TCP window) must be deadlined out, closed and
// deregistered without delaying healthy agents, and the dropped action
// must land in TransportStats.
func TestBroadcastDeadlinesOutStalledControlAgent(t *testing.T) {
	d, err := NewDaemonOpts("127.0.0.1:0", 2, 1, func(int64, []float64) {}, nil, DaemonOpts{
		BroadcastTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Healthy control agent on node 0.
	healthy, err := DialOpts(d.Addr(), 0, 1, "monitor+control", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	// Stalled control agent on node 1: raw conn that registers and then
	// never reads, so the daemon's writes eventually fill the window.
	stalled, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if tc, ok := stalled.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10) // shrink the window so the stall bites fast
	}
	if err := wire.WriteMsg(stalled, &wire.Envelope{Type: wire.MsgHello, Hello: &wire.Hello{
		NodeID: 1, Role: "control", NumPIs: 1, Epoch: 1, Proto: wire.ProtoVersion,
	}}); err != nil {
		t.Fatal(err)
	}
	if ack, err := wire.ReadMsg(stalled); err != nil || !ack.Ack.OK {
		t.Fatalf("stalled agent registration: %v %+v", err, ack)
	}
	waitFor(t, func() bool { return d.NumControlAgents() == 2 }, "both controls registered")
	// From here on the stalled conn reads nothing.

	// Large incompressible action payloads fill the stalled window fast.
	rng := rand.New(rand.NewSource(42))
	values := make([]float64, 1<<17)
	for i := range values {
		values[i] = rng.Float64()
	}
	var healthyDelivered int64
	var hmu sync.Mutex
	go func() {
		for range healthy.Actions() {
			hmu.Lock()
			healthyDelivered++
			hmu.Unlock()
		}
	}()

	deadline := time.Now().Add(15 * time.Second)
	for d.NumControlAgents() == 2 && time.Now().Before(deadline) {
		start := time.Now()
		d.BroadcastAction(1, 0, values)
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("broadcast took %v — stalled agent wedged the path", el)
		}
	}
	if n := d.NumControlAgents(); n != 1 {
		t.Fatalf("stalled control agent not deregistered: %d registered", n)
	}
	st := d.TransportStats()
	if st.DroppedActions < 1 {
		t.Fatalf("dropped action not accounted: %+v", st)
	}
	if st.ActionsAttempted != st.ActionsSent+st.DroppedActions {
		t.Fatalf("action accounting broken: %+v", st)
	}
	// The healthy agent must still be reachable after the eviction.
	d.BroadcastAction(2, 0, []float64{1})
	waitFor(t, func() bool {
		hmu.Lock()
		defer hmu.Unlock()
		return healthyDelivered >= 1
	}, "healthy agent receives an action")
}

// TestLivenessEvictsSilentAgent: a registered connection that goes
// quiet (no indicators, no heartbeats) is evicted at the liveness
// deadline and counted; a heartbeating agent survives.
func TestLivenessEvictsSilentAgent(t *testing.T) {
	d, err := NewDaemonOpts("127.0.0.1:0", 2, 1, func(int64, []float64) {}, nil, DaemonOpts{
		LivenessTimeout: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Heartbeating agent: outlives several liveness windows.
	live, err := DialOpts(d.Addr(), 0, 1, "monitor", Opts{
		HeartbeatInterval: 30 * time.Millisecond,
		BackoffMin:        5 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	// Silent raw conn: registers, then says nothing.
	silent, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if err := wire.WriteMsg(silent, &wire.Envelope{Type: wire.MsgHello, Hello: &wire.Hello{
		NodeID: 1, Role: "monitor", NumPIs: 1, Epoch: 1, Proto: wire.ProtoVersion,
	}}); err != nil {
		t.Fatal(err)
	}
	if ack, err := wire.ReadMsg(silent); err != nil || !ack.Ack.OK {
		t.Fatalf("silent registration: %v %+v", err, ack)
	}

	waitFor(t, func() bool { return d.TransportStats().Evictions >= 1 }, "silent agent evicted")
	// The eviction closed the conn server-side.
	silent.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadMsg(silent); err == nil {
		t.Fatal("evicted conn still readable")
	}
	// The heartbeating agent is still connected and useful.
	if !live.Connected() || live.Reconnects() != 0 {
		t.Fatalf("heartbeating agent evicted: connected=%v reconnects=%d", live.Connected(), live.Reconnects())
	}
	if err := live.SendIndicators(1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if d.TransportStats().Heartbeats < 2 {
		t.Fatalf("heartbeats = %d", d.TransportStats().Heartbeats)
	}
}

// TestDaemonRefusesOtherProtocolVersion: nothing but the version check
// stands between a peer speaking another wire format and a daemon
// misreading its frames, so a Hello with any other ProtoVersion is
// refused by name — which NodeAgent turns into a permanent failure
// rather than a redial loop — and registers nothing.
func TestDaemonRefusesOtherProtocolVersion(t *testing.T) {
	d, err := NewDaemonOpts("127.0.0.1:0", 1, 2, func(int64, []float64) {}, nil, DaemonOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, proto := range []int{0, wire.ProtoVersion - 1, wire.ProtoVersion + 1} {
		conn, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := wire.WriteMsg(conn, &wire.Envelope{Type: wire.MsgHello, Hello: &wire.Hello{
			NodeID: 0, Role: "monitor+control", NumPIs: 2, Epoch: 1, Proto: proto,
		}}); err != nil {
			t.Fatal(err)
		}
		ack, err := wire.ReadMsg(conn)
		if err != nil || ack.Type != wire.MsgAck || ack.Ack.OK || !strings.Contains(ack.Ack.Error, "protocol version") {
			t.Fatalf("proto %d: want a protocol-version refusal, got %+v err %v", proto, ack, err)
		}
		if _, err := wire.ReadMsg(conn); err == nil {
			t.Fatalf("proto %d: daemon kept the connection open after refusing it", proto)
		}
	}
	if st := d.TransportStats(); st.Hellos != 0 || d.NumControlAgents() != 0 {
		t.Fatalf("refused peers were registered: %+v, %d control agents", st, d.NumControlAgents())
	}
}

// TestFramesDeliveredInResolutionOrder: frames reach the sink one at a
// time, in the order the daemon resolved them, even when different
// goroutines resolved them. Here a connection goroutine is still inside
// the sink with tick 1 when the sweeper gap-fills tick 2: tick 2 must
// wait its turn, not run beside (or ahead of) tick 1.
func TestFramesDeliveredInResolutionOrder(t *testing.T) {
	var mu sync.Mutex
	var entered []int64
	release := make(chan struct{})
	d, err := NewDaemonOpts("127.0.0.1:0", 2, 1, func(tick int64, f []float64) {
		mu.Lock()
		entered = append(entered, tick)
		mu.Unlock()
		if tick == 1 {
			<-release
		}
	}, nil, DaemonOpts{PartialFrameTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before Close, which waits for the goroutine in the sink
	seen := func() []int64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]int64(nil), entered...)
	}
	var agents [2]*NodeAgent
	for n := range agents {
		if agents[n], err = DialOpts(d.Addr(), n, 1, "monitor", fastOpts()); err != nil {
			t.Fatal(err)
		}
		defer agents[n].Close()
	}
	// Node 1 reports tick 1 last, so it is node 1's connection goroutine
	// that completes the frame and sits in the sink; node 0's stays free.
	if err := agents[0].SendIndicators(1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return d.TransportStats().TicksStarted == 1 }, "tick 1 pending")
	if err := agents[1].SendIndicators(1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(seen()) == 1 }, "tick 1 in the sink")
	// Node 0 alone reports tick 2; the sweeper resolves it while the
	// sink is still busy with tick 1.
	if err := agents[0].SendIndicators(2, []float64{2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return d.TransportStats().PartialFrames == 1 }, "tick 2 gap-filled")
	time.Sleep(30 * time.Millisecond)
	if got := seen(); len(got) != 1 {
		t.Fatalf("sink entered for %v while still busy with tick 1", got)
	}
	unblock()
	waitFor(t, func() bool { return len(seen()) == 2 }, "tick 2 delivered")
	if got := seen(); got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivery order %v, want [1 2]", got)
	}
}
