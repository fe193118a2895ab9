package capesd

import (
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"capes/internal/agent"
)

// testSession returns a small, fast session config: 2 clients × 4 PIs,
// 2-tick observations, training from tick 8 so a few hundred ticks
// exercise the whole sample→act→train loop.
func testSession(name, ckpt string) SessionConfig {
	return SessionConfig{
		Name:            name,
		Listen:          "127.0.0.1:0",
		Clients:         2,
		PIsPerClient:    4,
		ObsTicks:        2,
		CheckpointDir:   ckpt,
		Seed:            1,
		TrainStartTicks: 8,
		MinibatchSize:   8,
	}
}

// pump connects one monitor+control agent plus monitors and streams
// synthetic indicator frames for ticks [from, to]. Values vary with the
// tick so the objective moves and the diff transport has work to do.
// Failures are reported with Errorf so pump may run off the test
// goroutine (concurrent-session tests).
func pump(t *testing.T, addr string, clients, pis int, from, to int64) {
	t.Helper()
	agents := make([]*agent.NodeAgent, clients)
	for i := range agents {
		role := "monitor"
		if i == 0 {
			role = "monitor+control"
		}
		a, err := agent.Dial(addr, i, pis, role)
		if err != nil {
			t.Errorf("dial %s node %d: %v", addr, i, err)
			return
		}
		defer a.Close()
		agents[i] = a
	}
	buf := make([]float64, pis)
	for tick := from; tick <= to; tick++ {
		for n, a := range agents {
			for j := range buf {
				buf[j] = float64((tick*7+int64(n)*3+int64(j))%11) / 10
			}
			if err := a.SendIndicators(tick, buf); err != nil {
				t.Errorf("send tick %d node %d: %v", tick, n, err)
				return
			}
		}
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("timeout: " + msg)
}

func TestTwoConcurrentSessionsShareOneProcess(t *testing.T) {
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")
	m := NewManager()
	defer m.Shutdown()

	sa, err := m.Create(testSession("alpha", dirA))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := m.Create(testSession("beta", dirB))
	if err != nil {
		t.Fatal(err)
	}
	if sa.Addr() == sb.Addr() {
		t.Fatalf("sessions share a listen address: %s", sa.Addr())
	}

	// Drive both sessions at once: this is the multi-target deployment
	// (and, under -race, the proof the shared engine/pool path is clean).
	var wg sync.WaitGroup
	for _, s := range []*Session{sa, sb} {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			pump(t, s.Addr(), 2, 4, 1, 400)
		}(s)
	}
	wg.Wait()

	for _, s := range []*Session{sa, sb} {
		waitFor(t, func() bool { return s.Stats().Engine.TrainSteps > 0 },
			s.Name()+" trained")
		st := s.Stats()
		if st.Engine.ReplayRecords == 0 {
			t.Fatalf("%s: no replay records", s.Name())
		}
		if st.State != StateRunning {
			t.Fatalf("%s: state %s", s.Name(), st.State)
		}
	}

	agg := m.AggregateStats()
	if agg.Totals.Sessions != 2 || agg.Totals.Running != 2 {
		t.Fatalf("totals = %+v", agg.Totals)
	}
	if agg.Totals.TrainSteps < sa.Stats().Engine.TrainSteps {
		t.Fatal("aggregate train steps below a single session's")
	}

	// Concurrent final checkpoint on shutdown. Snapshot alpha AFTER the
	// shutdown: a stopped session's stats are frozen and exactly match
	// its final checkpoint (reading before would race late in-flight
	// frames).
	if errs := m.Shutdown(); len(errs) != 0 {
		t.Fatalf("shutdown errors: %v", errs)
	}
	recordsA := sa.Stats().Engine.ReplayRecords
	valsA := sa.Stats().CurrentValues
	if recordsA == 0 {
		t.Fatal("alpha lost its replay records on shutdown")
	}

	// A fresh manager restores both sessions from their checkpoints.
	m2 := NewManager()
	defer m2.Shutdown()
	ra, err := m2.Create(testSession("alpha", dirA))
	if err != nil {
		t.Fatal(err)
	}
	st := ra.Stats()
	if !st.Restored {
		t.Fatal("alpha did not restore from its checkpoint")
	}
	if st.Engine.ReplayRecords != recordsA {
		t.Fatalf("restored replay records %d, want %d", st.Engine.ReplayRecords, recordsA)
	}
	for i, v := range st.CurrentValues {
		if v != valsA[i] {
			t.Fatalf("restored values %v, want %v", st.CurrentValues, valsA)
		}
	}
}

func TestCreateRejectsDuplicateAndInvalid(t *testing.T) {
	m := NewManager()
	defer m.Shutdown()
	if _, err := m.Create(testSession("dup", "")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(testSession("dup", "")); err == nil {
		t.Fatal("duplicate session name must fail")
	}
	bad := testSession("", "")
	if _, err := m.Create(bad); err == nil {
		t.Fatal("empty name must fail")
	}
	// monitor_only + exploit is the legacy pure-collection mode: no
	// training, no actions, just PIs into the replay DB. Must boot.
	collect := testSession("collect", "")
	collect.MonitorOnly = true
	collect.Exploit = true
	if _, err := m.Create(collect); err != nil {
		t.Fatalf("pure-collection session must boot: %v", err)
	}
	// Two sessions must not share a checkpoint directory (concurrent
	// saves would corrupt it); the dir frees up again after delete.
	dir := filepath.Join(t.TempDir(), "shared")
	if _, err := m.Create(testSession("own", dir)); err != nil {
		t.Fatal(err)
	}
	// A different spelling of the same directory is still a collision.
	if _, err := m.Create(testSession("thief", dir+"/")); err == nil {
		t.Fatal("shared checkpoint_dir must fail")
	}
	if err := m.Delete("own"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(testSession("thief", dir)); err != nil {
		t.Fatalf("dir not released after delete: %v", err)
	}
}

func TestPauseResumeGatesTicks(t *testing.T) {
	m := NewManager()
	defer m.Shutdown()
	s, err := m.Create(testSession("p", ""))
	if err != nil {
		t.Fatal(err)
	}
	pump(t, s.Addr(), 2, 4, 1, 100)
	waitFor(t, func() bool { return s.Stats().Engine.ReplayRecords > 0 }, "first records")

	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	if s.State() != StatePaused {
		t.Fatalf("state = %s", s.State())
	}
	before := s.Stats().Engine
	pump(t, s.Addr(), 2, 4, 101, 200)
	time.Sleep(50 * time.Millisecond) // let any in-flight frames drain
	after := s.Stats().Engine
	if after.ReplayRecords != before.ReplayRecords || after.TrainSteps != before.TrainSteps {
		t.Fatalf("paused session advanced: %+v -> %+v", before, after)
	}

	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	pump(t, s.Addr(), 2, 4, 201, 300)
	waitFor(t, func() bool { return s.Stats().Engine.ReplayRecords > after.ReplayRecords },
		"records after resume")
}

func TestDeleteDrainsSession(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	m := NewManager()
	defer m.Shutdown()
	s, err := m.Create(testSession("d", dir))
	if err != nil {
		t.Fatal(err)
	}
	pump(t, s.Addr(), 2, 4, 1, 50)
	waitFor(t, func() bool { return s.Stats().Engine.ReplayRecords > 0 }, "records")
	if err := m.Delete("d"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get("d"); ok {
		t.Fatal("session still visible after delete")
	}
	if s.State() != StateStopped {
		t.Fatalf("state = %s", s.State())
	}
	// Delete wrote a final checkpoint; a recreate restores it.
	s2, err := m.Create(testSession("d", dir))
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Stats().Restored {
		t.Fatal("final checkpoint was not written on delete")
	}
	if err := m.Delete("nope"); err == nil {
		t.Fatal("deleting a missing session must fail")
	}
}

func TestRestoreFailsLoudlyOnCorruptCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	m := NewManager()
	defer m.Shutdown()
	s, err := m.Create(testSession("c", dir))
	if err != nil {
		t.Fatal(err)
	}
	pump(t, s.Addr(), 2, 4, 1, 50)
	waitFor(t, func() bool { return s.Stats().Engine.ReplayRecords > 0 }, "records")
	if err := m.Delete("c"); err != nil {
		t.Fatal(err)
	}
	// Same checkpoint, different cluster shape: the restore must fail
	// (the old capesd silently ignored this and retrained from scratch).
	mismatched := testSession("c", dir)
	mismatched.Clients = 3
	if _, err := m.Create(mismatched); err == nil {
		t.Fatal("mismatched checkpoint restore must fail loudly")
	}
	// And a fresh (empty) dir must proceed quietly.
	fresh := testSession("c", filepath.Join(t.TempDir(), "empty"))
	if _, err := m.Create(fresh); err != nil {
		t.Fatalf("fresh checkpoint dir must not fail: %v", err)
	}
}

// TestNonFinitePIThroughAgent sends a NaN, a +Inf and a −Inf reading
// through real agent connections: the daemon counts each as it arrives,
// the engine keeps the PIs' last finite values and counts them too, and
// the session trains on without a divergence trip.
func TestNonFinitePIThroughAgent(t *testing.T) {
	m := NewManager()
	defer m.Shutdown()
	s, err := m.Create(testSession("nan", filepath.Join(t.TempDir(), "ckpt")))
	if err != nil {
		t.Fatal(err)
	}
	const clients, pis = 2, 4
	agents := make([]*agent.NodeAgent, clients)
	for i := range agents {
		role := "monitor"
		if i == 0 {
			role = "monitor+control"
		}
		if agents[i], err = agent.Dial(s.Addr(), i, pis, role); err != nil {
			t.Fatal(err)
		}
		defer agents[i].Close()
	}
	// Lockstep: each tick's frame is assembled before the next is sent,
	// so every frame is complete and carries exactly the values sent.
	bad := map[int64]float64{40: math.NaN(), 41: math.Inf(1), 42: math.Inf(-1)}
	buf := make([]float64, pis)
	for tick := int64(1); tick <= 100; tick++ {
		for n, a := range agents {
			for j := range buf {
				buf[j] = float64((tick*7+int64(n)*3+int64(j))%11) / 10
			}
			if v, ok := bad[tick]; ok && n == 1 {
				buf[2] = v
			}
			if err := a.SendIndicators(tick, buf); err != nil {
				t.Fatalf("send tick %d node %d: %v", tick, n, err)
			}
		}
		waitFor(t, func() bool { return s.Stats().Transport.CompleteFrames == tick }, "frame assembled")
	}
	waitFor(t, func() bool { return s.Stats().Engine.NonFinitePIs == int64(len(bad)) }, "the engine counted every non-finite PI")
	st := s.Stats()
	if st.Transport.NonFinitePIs != int64(len(bad)) {
		t.Fatalf("transport counted %d non-finite PIs, want %d", st.Transport.NonFinitePIs, len(bad))
	}
	if st.Engine.Diverged || st.Engine.DivergenceTrips != 0 || st.Engine.TrainErrors != 0 || st.Engine.TrainSteps == 0 {
		t.Fatalf("engine after the bad readings: %+v", st.Engine)
	}
}
