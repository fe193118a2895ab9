package agent

import (
	"sync"
	"testing"
	"time"
)

// startDaemon spins up a daemon collecting frames into a slice.
func startDaemon(t *testing.T, nodes, pis int) (*Daemon, func() [][]float64) {
	t.Helper()
	var mu sync.Mutex
	var frames [][]float64
	d, err := NewDaemonOpts("127.0.0.1:0", nodes, pis, func(tick int64, f []float64) {
		mu.Lock()
		frames = append(frames, append([]float64(nil), f...))
		mu.Unlock()
	}, nil, DaemonOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, func() [][]float64 {
		mu.Lock()
		defer mu.Unlock()
		return append([][]float64(nil), frames...)
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("timeout: " + msg)
}

func TestDaemonValidation(t *testing.T) {
	if _, err := NewDaemonOpts("127.0.0.1:0", 0, 1, func(int64, []float64) {}, nil, DaemonOpts{}); err == nil {
		t.Fatal("zero nodes must fail")
	}
	if _, err := NewDaemonOpts("127.0.0.1:0", 1, 1, nil, nil, DaemonOpts{}); err == nil {
		t.Fatal("nil sink must fail")
	}
}

func TestRegistrationRejectsBadAgents(t *testing.T) {
	d, _ := startDaemon(t, 2, 4)
	if _, err := Dial(d.Addr(), 5, 4, "monitor"); err == nil {
		t.Fatal("out-of-range node id must be rejected")
	}
	if _, err := Dial(d.Addr(), 0, 3, "monitor"); err == nil {
		t.Fatal("wrong PI count must be rejected")
	}
}

func TestFrameAssemblyAcrossNodes(t *testing.T) {
	d, frames := startDaemon(t, 2, 3)
	a0, err := Dial(d.Addr(), 0, 3, "monitor")
	if err != nil {
		t.Fatal(err)
	}
	defer a0.Close()
	a1, err := Dial(d.Addr(), 1, 3, "monitor")
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()

	if err := a0.SendIndicators(1, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Frame incomplete until node 1 reports.
	time.Sleep(20 * time.Millisecond)
	if len(frames()) != 0 {
		t.Fatal("frame emitted before all nodes reported")
	}
	if err := a1.SendIndicators(1, []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(frames()) == 1 }, "frame assembly")
	f := frames()[0]
	want := []float64{1, 2, 3, 4, 5, 6}
	for i := range want {
		if f[i] != want[i] {
			t.Fatalf("frame = %v", f)
		}
	}
}

func TestDifferentialTransportReconstructsFullVectors(t *testing.T) {
	d, frames := startDaemon(t, 1, 3)
	a, err := Dial(d.Addr(), 0, 3, "monitor")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SendIndicators(1, []float64{10, 20, 30})
	a.SendIndicators(2, []float64{10, 25, 30}) // only PI 1 changes
	waitFor(t, func() bool { return len(frames()) == 2 }, "two frames")
	f2 := frames()[1]
	if f2[0] != 10 || f2[1] != 25 || f2[2] != 30 {
		t.Fatalf("reconstructed frame = %v", f2)
	}
}

func TestActionBroadcastToControlAgents(t *testing.T) {
	d, _ := startDaemon(t, 2, 2)
	mon, err := Dial(d.Addr(), 0, 2, "monitor")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	ctl, err := Dial(d.Addr(), 1, 2, "monitor+control")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	waitFor(t, func() bool { return d.NumControlAgents() == 1 }, "control registration")

	if sent := d.BroadcastAction(7, 2, []float64{16, 500}); sent != 1 {
		t.Fatalf("broadcast reached %d agents, want 1", sent)
	}
	select {
	case act := <-ctl.Actions():
		if act.Tick != 7 || act.ID != 2 || act.Values[0] != 16 {
			t.Fatalf("action = %+v", act)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("control agent never received the action")
	}
	// The pure monitor must not receive actions.
	select {
	case <-mon.Actions():
		t.Fatal("monitor agent received an action")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestTrafficStats(t *testing.T) {
	d, frames := startDaemon(t, 1, 44)
	a, err := Dial(d.Addr(), 0, 44, "monitor")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	pis := make([]float64, 44)
	for i := range pis {
		pis[i] = float64(i)
	}
	a.SendIndicators(1, pis)
	// Steady state: few changes per tick.
	for tick := int64(2); tick <= 11; tick++ {
		pis[3] = float64(tick)
		pis[7] = float64(tick) * 2
		a.SendIndicators(tick, pis)
	}
	waitFor(t, func() bool { return len(frames()) == 11 }, "all frames")
	bytes, msgs := a.TrafficStats()
	if msgs != 11 {
		t.Fatalf("msgs = %d", msgs)
	}
	avg := bytes / msgs
	// Table 2: ≈186 B/tick with 44 PIs; allow generous slack but require
	// the differential optimization to show.
	if avg > 500 {
		t.Fatalf("average message size %d B too large", avg)
	}
}

func TestAgentCloseStopsActions(t *testing.T) {
	d, _ := startDaemon(t, 1, 2)
	a, err := Dial(d.Addr(), 0, 2, "monitor+control")
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	select {
	case _, ok := <-a.Actions():
		if ok {
			t.Fatal("unexpected action after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("actions channel not closed")
	}
	if err := a.SendIndicators(1, []float64{1, 2}); err == nil {
		t.Fatal("send after close must fail")
	}
	if err := a.Close(); err != nil {
		t.Fatal("double close must be safe")
	}
}

func TestDaemonCloseUnblocksMonitorAgents(t *testing.T) {
	// Regression: Close used to terminate only control connections, so a
	// connected monitor-only agent left its serveConn goroutine blocked
	// in ReadMsg and Close hung forever in wg.Wait.
	d, _ := startDaemon(t, 2, 2)
	mon, err := Dial(d.Addr(), 0, 2, "monitor")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if err := mon.SendIndicators(1, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		d.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with a monitor agent connected")
	}
}

func TestDaemonCloseIsIdempotent(t *testing.T) {
	d, _ := startDaemon(t, 1, 1)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal("second close must be nil")
	}
}

func TestWorkloadChangeNotification(t *testing.T) {
	var mu sync.Mutex
	var changes []string
	d, err := NewDaemonOpts("127.0.0.1:0", 1, 2, func(int64, []float64) {}, func(tick int64, name string) {
		mu.Lock()
		changes = append(changes, name)
		mu.Unlock()
	}, DaemonOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	a, err := Dial(d.Addr(), 0, 2, "monitor")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.SendWorkloadChange(42, "fileserver"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(changes) == 1
	}, "workload change delivery")
	mu.Lock()
	if changes[0] != "fileserver" {
		t.Fatalf("changes = %v", changes)
	}
	mu.Unlock()
}

func TestDuplicateTickFromSameNodeDoesNotDoubleEmit(t *testing.T) {
	d, frames := startDaemon(t, 2, 1)
	a0, err := Dial(d.Addr(), 0, 1, "monitor")
	if err != nil {
		t.Fatal(err)
	}
	defer a0.Close()
	a1, err := Dial(d.Addr(), 1, 1, "monitor")
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a0.SendIndicators(1, []float64{1})
	a0.SendIndicators(1, []float64{2}) // duplicate tick, updated value
	a1.SendIndicators(1, []float64{3})
	waitFor(t, func() bool { return len(frames()) >= 1 }, "frame")
	time.Sleep(30 * time.Millisecond)
	if n := len(frames()); n != 1 {
		t.Fatalf("expected exactly 1 frame, got %d", n)
	}
}
