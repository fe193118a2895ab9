package capes

import (
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"capes/internal/replay"
	"capes/internal/wire"
)

// clusterEngineWith is clusterEngine with the configuration open to the
// caller before the engine is built.
func clusterEngineWith(t *testing.T, cluster *ClusterConfig, mutate func(*Config)) (*Engine, *int64) {
	t.Helper()
	cfg, _ := smallConfig(t, true, true)
	cfg.Cluster = cluster
	mutate(&cfg)
	tick := new(int64)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return tickFrame(*tick), nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return eng, tick
}

// worker is one engine of a cluster under test and the clock it reads.
type worker struct {
	eng  *Engine
	tick *int64
}

// driveTogether ticks every worker through from..to concurrently — in
// cluster lockstep, once they are joined — and fails on a deadlock.
func driveTogether(t *testing.T, workers []worker, from, to int64) {
	t.Helper()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for *w.tick = from; *w.tick <= to; *w.tick++ {
				w.eng.Tick(*w.tick)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("cluster run deadlocked")
	}
}

// assertSameOptimizerState: every worker is bit-equal to the first (the
// leader) in everything the next step reads — θ, θ⁻, Adam's moments and
// step count, the global step — and in the loss EWMA.
func assertSameOptimizerState(t *testing.T, when string, workers []worker) {
	t.Helper()
	bits := func(what string, i int, got, want []EnginePrecision) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: worker %d holds %d %s, the leader %d", when, i, len(got), what, len(want))
		}
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("%s: worker %d's %s differ from the leader's at %d: %v vs %v", when, i, what, j, got[j], want[j])
			}
		}
	}
	la := workers[0].eng.Agent()
	lm, lv := la.Opt.FlatMoments()
	for i, w := range workers[1:] {
		a := w.eng.Agent()
		if a.Steps() != la.Steps() || a.Opt.StepCount() != la.Opt.StepCount() {
			t.Fatalf("%s: worker %d at step %d (optimizer %d), the leader at %d (%d)",
				when, i+1, a.Steps(), a.Opt.StepCount(), la.Steps(), la.Opt.StepCount())
		}
		m, v := a.Opt.FlatMoments()
		bits("online parameters", i+1, a.Online.FlatParams(), la.Online.FlatParams())
		bits("target parameters", i+1, a.Target.FlatParams(), la.Target.FlatParams())
		bits("first moments", i+1, m, lm)
		bits("second moments", i+1, v, lv)
		if a.SmoothedLoss() != la.SmoothedLoss() {
			t.Fatalf("%s: worker %d's loss EWMA %v, the leader's %v", when, i+1, a.SmoothedLoss(), la.SmoothedLoss())
		}
	}
}

// TestClusterWorkersHoldLeaderOptimizerState: followers step for
// themselves, so what they hold must be the leader's — not only θ and θ⁻
// but the optimizer's moments and step count too. Every worker here
// trains on its own data (its own seed), so the mean differs from every
// local gradient and a worker that stepped on anything else would show.
// Checked after a run, after a follower
// is killed and a new process takes its rank while the leader's moments
// are non-zero (a sync without them would hold the same θ and drift from
// the next step on), and after a leader-side restore, which leaves the
// optimizer's step count behind the global step.
func TestClusterWorkersHoldLeaderOptimizerState(t *testing.T) {
	t.Run("soft", func(t *testing.T) {
		seeded := func(seed int64) func(*Config) {
			return func(c *Config) { c.Seed = seed }
		}
		leader, ltick := clusterEngineWith(t, &ClusterConfig{
			Role: ClusterLeader, Listen: "127.0.0.1:0", CollectTimeout: 20 * time.Second,
		}, seeded(1))
		defer leader.Stop()
		join := func(rank int, seed int64) worker {
			eng, tick := clusterEngineWith(t, &ClusterConfig{
				Role: ClusterFollower, LeaderAddr: leader.ClusterAddr(), Rank: rank, SyncTimeout: 20 * time.Second,
			}, seeded(seed))
			t.Cleanup(eng.Stop)
			if err := eng.ClusterSync(); err != nil {
				t.Fatal(err)
			}
			return worker{eng, tick}
		}
		workers := []worker{{leader, ltick}, join(1, 2), join(2, 3)}

		const n = 60
		driveTogether(t, workers, 1, n)
		assertSameOptimizerState(t, "after the first run", workers)
		la := leader.Agent()
		if la.Steps() != n-16+1 || la.Opt.StepCount() != int(la.Steps()) {
			t.Fatalf("leader at step %d (optimizer %d) after %d ticks", la.Steps(), la.Opt.StepCount(), n)
		}
		if cs := leader.Stats().Cluster; cs.AggrSteps != la.Steps() || cs.FramesAccepted != 2*la.Steps() || cs.FramesStale+cs.CollectTimeouts+cs.Evictions != 0 {
			t.Fatalf("first run was not %d three-worker steps: %+v", la.Steps(), cs)
		}
		if m, _ := la.Opt.FlatMoments(); len(m) == 0 || m[0] == 0 {
			t.Fatal("the leader's moments are still zero: the rejoin below would prove nothing")
		}

		// Kill rank 1; a new process with nothing in its ring or its
		// optimizer takes the rank over.
		workers[1].eng.Stop()
		for deadline := time.Now().Add(10 * time.Second); leader.Stats().Cluster.Followers != 1; {
			if time.Now().After(deadline) {
				t.Fatal("leader never noticed the dead follower")
			}
			time.Sleep(time.Millisecond)
		}
		workers[1] = join(1, 4)
		assertSameOptimizerState(t, "at the rejoin", workers)
		driveTogether(t, workers, n+1, 2*n)
		assertSameOptimizerState(t, "after the rejoin", workers)
		if got := leader.Agent().Steps(); got != 2*n-16+1 {
			t.Fatalf("leader at step %d after %d ticks", got, 2*n)
		}

		// A restore on the leader keeps the global step it saved and
		// starts the optimizer afresh; followers learn of it from
		// their next exchange and come back through the full sync.
		dir := t.TempDir() + "/ckpt"
		if err := leader.SaveSession(dir); err != nil {
			t.Fatal(err)
		}
		if err := leader.RestoreSession(dir); err != nil {
			t.Fatal(err)
		}
		for _, w := range workers[1:] {
			*w.tick = 2*n + 1
			w.eng.Tick(*w.tick) // finds the connection gone
			if err := w.eng.ClusterSync(); err != nil {
				t.Fatal(err)
			}
		}
		driveTogether(t, workers, 2*n+2, 2*n+21)
		assertSameOptimizerState(t, "after the leader's restore", workers)
		la = leader.Agent()
		if la.Opt.StepCount() != 20 || la.Steps() != 2*n-16+1+20 {
			t.Fatalf("after the restore the leader is at step %d, optimizer step %d", la.Steps(), la.Opt.StepCount())
		}
	})
}

// benchCluster builds a leader and one follower in this process, over
// loopback, at the shape of perfbench's cluster-1follower workload (30
// PIs × 10 ticks: a 300-wide, 182 105-parameter network), joined and
// warmed past the ring's fill. The follower ticks on a goroutine of its
// own until the leader stops answering; stop ends both and returns the
// follower's step count.
func benchCluster(tb testing.TB) (leader *Engine, tick func(), stop func() int64) {
	tb.Helper()
	shape := func(c *Config) {
		space, err := NewActionSpace(
			Tunable{Name: "mrif", Min: 1, Max: 256, Step: 8, Default: 8},
			Tunable{Name: "rate", Min: 0, Max: 1000, Step: 50, Default: 500},
		)
		if err != nil {
			tb.Fatal(err)
		}
		h := DefaultHyperparameters()
		h.TicksPerObservation = 10
		h.TrainStartTicks = 64
		h.ReplayCapacity = 512
		c.Hyper, c.Space, c.FrameWidth, c.Objective = h, space, 30, SumIndices(0, 1, 2)
	}
	wide := func(tick *int64) func() (replay.Frame, error) {
		frame := make(replay.Frame, 30)
		return func() (replay.Frame, error) {
			frame[*tick%30] = float64(*tick % 7)
			return frame, nil
		}
	}
	build := func(cluster *ClusterConfig) (*Engine, *int64) {
		cfg := Config{RewardMode: RewardDelta, Seed: 1, Training: true, Tuning: true, Cluster: cluster}
		shape(&cfg)
		now := new(int64)
		eng, err := NewEngine(cfg, wide(now), func([]float64) error { return nil })
		if err != nil {
			tb.Fatal(err)
		}
		return eng, now
	}
	leader, lnow := build(&ClusterConfig{Role: ClusterLeader, Listen: "127.0.0.1:0", CollectTimeout: 30 * time.Second})
	follower, fnow := build(&ClusterConfig{Role: ClusterFollower, LeaderAddr: leader.ClusterAddr(), Rank: 1, SyncTimeout: 30 * time.Second})
	if err := follower.ClusterSync(); err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			*fnow++
			follower.Tick(*fnow)
			if cs := follower.Stats().Cluster; !cs.Synced || cs.BcastMisses > 0 {
				return // the leader closed the gradient plane
			}
		}
	}()
	tick = func() {
		*lnow++
		leader.Tick(*lnow)
	}
	for i := 0; i < 128; i++ {
		tick()
	}
	stop = func() int64 {
		leader.Stop()
		<-done
		follower.Stop()
		return follower.Stats().TrainSteps
	}
	return leader, tick, stop
}

// finishBenchCluster stops both workers and checks the run: every step
// folded the follower's frame and both ended on the same one.
func finishBenchCluster(tb testing.TB, leader *Engine, stop func() int64) {
	tb.Helper()
	st := leader.Stats() // before the leader's own shutdown evicts the follower
	followerSteps := stop()
	if cs := st.Cluster; st.TrainSteps == 0 || st.TrainErrors != 0 || cs.AggrSteps != st.TrainSteps ||
		cs.CollectTimeouts+cs.FramesStale+cs.Evictions != 0 || followerSteps != st.TrainSteps {
		tb.Fatalf("not a clean two-worker run: leader at step %d (%d errors) %+v, follower at step %d",
			st.TrainSteps, st.TrainErrors, *cs, followerSteps)
	}
}

// BenchmarkClusterStep is one cluster round as the leader sees it: a
// full engine tick with a train step in it, the follower's frame in, the
// mean gradient out. B/op and allocs/op are the whole process's — both
// workers and the leader's reader goroutine.
func BenchmarkClusterStep(b *testing.B) {
	leader, tick, stop := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	finishBenchCluster(b, leader, stop)
}

// TestClusterStepAllocatesNoFrames: in steady state neither side of a
// cluster round allocates anything the size of a frame (0.73 MB here) —
// the follower sends its gradient arena and reads the mean into it, the
// leader decodes into one recycled arena and reduces in place.
func TestClusterStepAllocatesNoFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("two 182k-parameter engines")
	}
	leader, tick, stop := benchCluster(t)
	const steps = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		tick()
	}
	runtime.ReadMemStats(&after)
	finishBenchCluster(t, leader, stop)
	perStep := (after.TotalAlloc - before.TotalAlloc) / steps
	t.Logf("%d B and %.1f allocations per cluster step, both workers", perStep, float64(after.Mallocs-before.Mallocs)/steps)
	// Measured: ≈ 1.3 KB (the action path's records and the harness's
	// Stats calls), ≈ 70 KB under the race detector's bookkeeping.
	if frame := uint64(4 * len(leader.Agent().Online.FlatParams())); perStep > frame/4 {
		t.Fatalf("a cluster step allocates %d B; a frame is %d B", perStep, frame)
	}
}

// TestClusterLeaderSurvivesStalePassFrame: a pass frame carries no arena,
// so dropping one as stale must put nothing on the leader's free list —
// the follower's next real frame still finds an arena to decode into and
// is folded. Driven by a hand-written follower, so the frames are exactly
// these.
func TestClusterLeaderSurvivesStalePassFrame(t *testing.T) {
	leader, ltick := clusterEngineWith(t, &ClusterConfig{
		Role: ClusterLeader, Listen: "127.0.0.1:0", CollectTimeout: 100 * time.Millisecond,
	}, func(*Config) {})
	defer leader.Stop()
	for *ltick = 1; *ltick < 16; *ltick++ { // up to the first train tick
		leader.Tick(*ltick)
	}
	conn, err := net.Dial("tcp", leader.ClusterAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	send := func(env *wire.Envelope) {
		t.Helper()
		if err := wire.WriteMsg(conn, env); err != nil {
			t.Fatal(err)
		}
	}
	send(&wire.Envelope{Type: wire.MsgHello, Hello: &wire.Hello{NodeID: 1, Role: trainerRole, Epoch: 1, Proto: wire.ProtoVersion}})
	welcome, err := wire.ReadMsg(conn)
	if err != nil || welcome.Type != wire.MsgParamBcast {
		t.Fatalf("no welcome: %+v, %v", welcome, err)
	}
	n := len(welcome.ParamBcast.Params)

	// A pass frame for a step long gone, then a train tick: the frame is
	// dropped as stale and the round times out on the follower.
	send(&wire.Envelope{Type: wire.MsgGradFrame, GradFrame: &wire.GradFrame{Rank: 1, Epoch: 1, Step: 999}})
	leader.Tick(*ltick)
	*ltick++
	if mean, err := wire.ReadMsg(conn); err != nil || mean.GradFrame.Step != 1 || len(mean.GradFrame.Grads) != n {
		t.Fatalf("no mean gradient for step 1: %+v, %v", mean, err)
	}
	cs := leader.Stats().Cluster
	if cs.FramesStale != 1 || cs.CollectTimeouts != 1 || cs.Followers != 1 {
		t.Fatalf("after the stale pass frame: %+v", cs)
	}

	// A real frame for the next step is decoded and folded.
	send(&wire.Envelope{Type: wire.MsgGradFrame, GradFrame: &wire.GradFrame{Rank: 1, Epoch: 1, Step: 2, BatchN: 8, Loss: 1, Grads: make([]float32, n)}})
	leader.Tick(*ltick)
	if mean, err := wire.ReadMsg(conn); err != nil || mean.GradFrame.Step != 2 || mean.GradFrame.BatchN != 2 {
		t.Fatalf("no two-worker mean for step 2: %+v, %v", mean, err)
	}
	if cs := leader.Stats().Cluster; cs.FramesAccepted != 1 || cs.AggrSteps != 1 || cs.Followers != 1 || cs.Evictions != 0 {
		t.Fatalf("the real frame was not folded: %+v", cs)
	}
}
