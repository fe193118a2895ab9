package capes

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"capes/internal/faultnet"
	"capes/internal/replay"
	"capes/internal/wire"
)

// clusterEngine builds an engine fed by the deterministic tickFrame
// workload; the returned tick pointer is read by the collector, so the
// goroutine driving Tick owns the clock.
func clusterEngine(t *testing.T, cluster *ClusterConfig) (*Engine, *int64) {
	t.Helper()
	cfg, _ := smallConfig(t, true, true)
	cfg.Cluster = cluster
	tick := new(int64)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return tickFrame(*tick), nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return eng, tick
}

// clusterRun is one worker's observable trajectory.
type clusterRun struct {
	actions []int
	dist    []int64
	steps   int64
	params  []EnginePrecision
	target  []EnginePrecision
	stats   Stats
}

// driveTicks runs eng through ticks 1..n, capturing the trajectory.
func driveTicks(eng *Engine, tick *int64, n int64) clusterRun {
	var r clusterRun
	for *tick = 1; *tick <= n; *tick++ {
		eng.Tick(*tick)
		r.actions = append(r.actions, eng.LastAction())
	}
	r.dist = eng.ActionDistribution()
	r.stats = eng.Stats()
	r.steps = r.stats.TrainSteps
	a := eng.Agent()
	r.params = append([]EnginePrecision(nil), a.Online.FlatParams()...)
	r.target = append([]EnginePrecision(nil), a.Target.FlatParams()...)
	return r
}

// goldenRun is the single-process reference trajectory every cluster
// variant must reproduce bit for bit.
func goldenRun(t *testing.T, n int64) clusterRun {
	t.Helper()
	eng, tick := clusterEngine(t, nil)
	defer eng.Stop()
	return driveTicks(eng, tick, n)
}

func assertSameTrajectory(t *testing.T, what string, got, want clusterRun) {
	t.Helper()
	if got.steps != want.steps {
		t.Fatalf("%s: %d train steps, want %d", what, got.steps, want.steps)
	}
	if !reflect.DeepEqual(got.actions, want.actions) {
		for i := range want.actions {
			if got.actions[i] != want.actions[i] {
				t.Fatalf("%s: action stream diverges at tick %d: %d vs %d", what, i+1, got.actions[i], want.actions[i])
			}
		}
	}
	if !reflect.DeepEqual(got.dist, want.dist) {
		t.Fatalf("%s: action distribution %v, want %v", what, got.dist, want.dist)
	}
	if !reflect.DeepEqual(got.params, want.params) {
		t.Fatalf("%s: online parameters diverge from the golden trajectory", what)
	}
	if !reflect.DeepEqual(got.target, want.target) {
		t.Fatalf("%s: target parameters diverge from the golden trajectory", what)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	cases := []ClusterConfig{
		{Role: "observer"},
		{Role: ClusterLeader},                      // no listen addr
		{Role: ClusterFollower},                    // no leader addr
		{Role: ClusterFollower, LeaderAddr: "x:1"}, // no rank
		{Role: ClusterFollower, LeaderAddr: "x:1", Rank: -2},
	}
	for _, cc := range cases {
		if err := cc.Validate(); err == nil {
			t.Fatalf("config %+v must fail validation", cc)
		}
	}
}

// TestClusterSoloLeaderMatchesGolden: a leader with no followers runs
// the exact single-process trajectory — the reduction of one worker's
// gradient round-trips through the float64 accumulator bit for bit.
func TestClusterSoloLeaderMatchesGolden(t *testing.T) {
	const n = 300
	want := goldenRun(t, n)
	eng, tick := clusterEngine(t, &ClusterConfig{
		Role:           ClusterLeader,
		Listen:         "127.0.0.1:0",
		CollectTimeout: 50 * time.Millisecond,
	})
	defer eng.Stop()
	got := driveTicks(eng, tick, n)
	assertSameTrajectory(t, "solo leader", got, want)
	cs := got.stats.Cluster
	if cs == nil || cs.Role != ClusterLeader {
		t.Fatalf("missing leader cluster stats: %+v", cs)
	}
	if cs.SoloSteps != got.steps || cs.AggrSteps != 0 {
		t.Fatalf("solo leader accounting: %d solo + %d aggregated, want %d solo", cs.SoloSteps, cs.AggrSteps, got.steps)
	}
}

// TestClusterGoldenTrajectory is the tentpole acceptance test: a leader
// and two followers — every worker with the same seed and workload —
// co-train one session, and every worker's full trajectory (actions,
// parameters, target network, step counter) is bit-identical to the
// single-process golden run.
func TestClusterGoldenTrajectory(t *testing.T) {
	const n = 300
	want := goldenRun(t, n)

	leader, ltick := clusterEngine(t, &ClusterConfig{
		Role:           ClusterLeader,
		Listen:         "127.0.0.1:0",
		CollectTimeout: 20 * time.Second,
	})
	defer leader.Stop()
	addr := leader.ClusterAddr()

	followers := make([]*Engine, 2)
	fticks := make([]*int64, 2)
	for i := range followers {
		followers[i], fticks[i] = clusterEngine(t, &ClusterConfig{
			Role:        ClusterFollower,
			LeaderAddr:  addr,
			Rank:        i + 1,
			SyncTimeout: 20 * time.Second,
		})
		defer followers[i].Stop()
		// Register before the first train tick so every step aggregates
		// all three workers.
		if err := followers[i].ClusterSync(); err != nil {
			t.Fatal(err)
		}
		// A follower that holds its welcome is one the leader waits for.
		if got := leader.Stats().Cluster.Followers; got != i+1 {
			t.Fatalf("ClusterSync returned with %d of %d followers registered", got, i+1)
		}
	}

	runs := make([]clusterRun, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); runs[0] = driveTicks(leader, ltick, n) }()
	go func() { defer wg.Done(); runs[1] = driveTicks(followers[0], fticks[0], n) }()
	go func() { defer wg.Done(); runs[2] = driveTicks(followers[1], fticks[1], n) }()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("cluster run deadlocked")
	}

	assertSameTrajectory(t, "leader", runs[0], want)
	assertSameTrajectory(t, "follower rank 1", runs[1], want)
	assertSameTrajectory(t, "follower rank 2", runs[2], want)

	cs := runs[0].stats.Cluster
	if cs == nil {
		t.Fatal("leader is missing cluster stats")
	}
	if cs.Followers != 2 {
		t.Fatalf("leader sees %d followers, want 2", cs.Followers)
	}
	if cs.Evictions != 0 || cs.FramesStale != 0 || cs.CollectTimeouts != 0 {
		t.Fatalf("healthy run recorded faults: %+v", cs)
	}
	if cs.AggrSteps != want.steps {
		t.Fatalf("%d aggregated steps, want %d", cs.AggrSteps, want.steps)
	}
	if cs.FramesAccepted != 2*want.steps {
		t.Fatalf("%d frames accepted, want %d", cs.FramesAccepted, 2*want.steps)
	}
	for i := 1; i <= 2; i++ {
		fs := runs[i].stats.Cluster
		if fs == nil || !fs.Synced || fs.Syncs != 1 || fs.Reconnects != 1 {
			t.Fatalf("follower %d transport state: %+v", i, fs)
		}
	}
}

// TestClusterChaosFollowerKillRejoin: the follower's link to the leader
// runs through a fault-injecting proxy that kills the connection every
// few dozen frames. The follower must rejoin (bumped epoch, fresh
// welcome sync) without ever corrupting the leader's step sequence, and
// the leader must keep stepping solo while the follower is down.
func TestClusterChaosFollowerKillRejoin(t *testing.T) {
	// Driven by kills, not ticks: the leader ticks until the proxy has
	// killed the link minKills times and the follower has rejoined after
	// each kill, so however fast a solo step runs on the host, the chaos
	// engages. The tick cap and the deadline only end a run in which it
	// never does, and that run fails loudly.
	const minKills, tickCap, deadline = 4, 200_000, 60 * time.Second
	leader, ltick := clusterEngine(t, &ClusterConfig{
		Role:           ClusterLeader,
		Listen:         "127.0.0.1:0",
		CollectTimeout: 100 * time.Millisecond,
	})
	defer leader.Stop()

	// The kill window is a byte count, so it is derived from this model's
	// GradFrame: whatever the codec or the width, the link dies every
	// 8–23 frames.
	frameBytes, err := wire.MessageBytes(&wire.Envelope{Type: wire.MsgGradFrame, GradFrame: &wire.GradFrame{
		Rank: 1, Epoch: 1, Step: 1, BatchN: 32, Loss: 1, Grads: make([]float32, len(leader.Agent().Online.FlatParams())),
	}})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.New("127.0.0.1:0", leader.ClusterAddr(), faultnet.Config{
		Seed:         11,
		KillAfterMin: int64(8 * frameBytes),
		KillAfterMax: int64(23 * frameBytes),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	follower, ftick := clusterEngine(t, &ClusterConfig{
		Role:        ClusterFollower,
		LeaderAddr:  proxy.Addr(),
		Rank:        1,
		SyncTimeout: 2 * time.Second,
	})
	defer follower.Stop()
	if err := follower.ClusterSync(); err != nil {
		t.Fatal(err)
	}

	// The leader counts the welcome syncs it sends: the first join and
	// one per rejoin. It reads only its own stats (the follower holds its
	// engine lock while it waits on the leader's broadcast). The follower
	// dials again only after absorbing its previous welcome, so once
	// minKills+2 have gone out it holds minKills+1, whatever happens to
	// the last one when the link is cut below.
	engaged := func() bool {
		cs := leader.Stats().Cluster
		return proxy.Stats().Kills >= minKills && cs != nil && cs.Syncs >= minKills+2
	}
	var lrun, frun clusterRun
	var n, kills int64 // leader ticks run, proxy kills while it ran
	leaderDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(leaderDone)
		start := time.Now()
		for *ltick = 1; *ltick <= tickCap; *ltick++ {
			leader.Tick(*ltick)
			n = *ltick
			if n%16 == 0 && (engaged() || time.Since(start) > deadline) {
				break
			}
		}
		lrun.stats = leader.Stats()
		lrun.steps = lrun.stats.TrainSteps
		lrun.params = append([]EnginePrecision(nil), leader.Agent().Online.FlatParams()...)
		kills = proxy.Stats().Kills
		// Pull the cable: a follower waiting on a mean that will never
		// come gives up now rather than after its SyncTimeout.
		proxy.SetHold(true)
		proxy.KillActive()
	}()
	go func() {
		defer wg.Done()
		// Once the leader stops ticking no more broadcasts arrive, so
		// the follower's next tick would wait out a full SyncTimeout;
		// stop instead — the assertions below only need the follower to
		// have made progress, not to match the leader's tick count.
		for *ftick = 1; ; *ftick++ {
			select {
			case <-leaderDone:
				return
			default:
			}
			follower.Tick(*ftick)
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("chaos run deadlocked")
	}
	frun.stats = follower.Stats()
	frun.steps = frun.stats.TrainSteps
	fa := follower.Agent()
	frun.params = append([]EnginePrecision(nil), fa.Online.FlatParams()...)
	if cs := lrun.stats.Cluster; kills < minKills || cs == nil || cs.Syncs < minKills+2 {
		t.Fatalf("chaos did not engage in %d leader ticks (cap %d, deadline %v): %d kills, leader %+v, follower %+v",
			n, tickCap, deadline, kills, cs, frun.stats.Cluster)
	}
	// Step-sequence integrity: the leader applies exactly one step per
	// due train tick — kills, evictions and rejoins never stall or
	// double-apply it — and every step is accounted solo or aggregated.
	wantSteps := n - 16 + 1 // train ticks 16..n with TrainEvery 1
	if lrun.steps != wantSteps {
		t.Fatalf("leader applied %d steps, want %d", lrun.steps, wantSteps)
	}
	cs := lrun.stats.Cluster
	if cs == nil {
		t.Fatal("leader is missing cluster stats")
	}
	if cs.SoloSteps+cs.AggrSteps != lrun.steps {
		t.Fatalf("step accounting leaks: %d solo + %d aggregated != %d steps", cs.SoloSteps, cs.AggrSteps, lrun.steps)
	}
	if lrun.stats.TrainErrors != 0 {
		t.Fatalf("leader hit %d train errors", lrun.stats.TrainErrors)
	}
	if kills < 4 {
		t.Fatalf("proxy killed the link %d times, want ≥ 4 — chaos did not engage", kills)
	}
	fs := frun.stats.Cluster
	if fs == nil {
		t.Fatal("follower is missing cluster stats")
	}
	if fs.Reconnects < 5 {
		t.Fatalf("follower reconnected %d times, want ≥ 5 (first join + a rejoin per kill)", fs.Reconnects)
	}
	if fs.Syncs < 5 {
		t.Fatalf("follower absorbed %d welcome syncs, want ≥ 5", fs.Syncs)
	}
	if frun.stats.TrainErrors != 0 {
		t.Fatalf("follower hit %d train errors", frun.stats.TrainErrors)
	}
	if frun.steps == 0 || frun.steps > lrun.steps {
		t.Fatalf("follower at step %d, leader at %d", frun.steps, lrun.steps)
	}
	// The follower's parameters are a prefix of the leader's trajectory:
	// after its last applied broadcast it holds the leader's exact
	// θ/θ⁻ for that step — never a blend. If it ended fully caught up,
	// the arenas must be bit-identical.
	if frun.steps == lrun.steps {
		if !reflect.DeepEqual(frun.params, lrun.params) {
			t.Fatal("caught-up follower diverged from the leader's parameters")
		}
	}
}

// TestClusterRestoreRealignsFollowers: a leader-side checkpoint restore
// rewinds the model; followers must be evicted and resynced against the
// restored parameters instead of continuing the dead trajectory.
func TestClusterRestoreRealignsFollowers(t *testing.T) {
	const n = 120
	dir := t.TempDir() + "/ckpt"

	leader, ltick := clusterEngine(t, &ClusterConfig{
		Role:           ClusterLeader,
		Listen:         "127.0.0.1:0",
		CollectTimeout: 200 * time.Millisecond,
	})
	defer leader.Stop()
	follower, ftick := clusterEngine(t, &ClusterConfig{
		Role:        ClusterFollower,
		LeaderAddr:  leader.ClusterAddr(),
		Rank:        1,
		SyncTimeout: 2 * time.Second,
	})
	defer follower.Stop()
	if err := follower.ClusterSync(); err != nil {
		t.Fatal(err)
	}

	// The leader ticks in the background for the duration of each phase
	// (so the follower always has broadcasts to wait on); the follower
	// is driven synchronously. Save/restore happen between phases while
	// both clocks are quiet.
	drive := func(from, to int64) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				*ltick++
				leader.Tick(*ltick)
			}
		}()
		for *ftick = from; *ftick <= to; *ftick++ {
			follower.Tick(*ftick)
		}
		close(stop)
		wg.Wait()
	}
	drive(1, n/2)
	if err := leader.SaveSession(dir); err != nil {
		t.Fatal(err)
	}
	savedSteps := leader.Stats().TrainSteps
	drive(n/2+1, 3*n/4)
	if err := leader.RestoreSession(dir); err != nil {
		t.Fatal(err)
	}
	if got := leader.Stats().TrainSteps; got != savedSteps {
		t.Fatalf("restore left the leader at step %d, want %d", got, savedSteps)
	}
	drive(3*n/4+1, int64(n))

	lsteps := leader.Stats().TrainSteps
	if lsteps <= savedSteps {
		t.Fatalf("leader never trained after restore: %d steps", lsteps)
	}
	fs := follower.Stats().Cluster
	if fs.Reconnects < 2 {
		t.Fatalf("follower reconnected %d times, want ≥ 2 after leader restore", fs.Reconnects)
	}
	if fsteps := follower.Stats().TrainSteps; fsteps > lsteps {
		t.Fatalf("follower at step %d ahead of leader %d", fsteps, lsteps)
	}
}

// TestClusterLeaderRefusesOtherProtocolVersion: a trainer speaking any
// other wire version is dropped at the handshake — no welcome sync, no
// registration — while a current-version peer still gets in.
func TestClusterLeaderRefusesOtherProtocolVersion(t *testing.T) {
	leader, _ := clusterEngine(t, &ClusterConfig{Role: ClusterLeader, Listen: "127.0.0.1:0"})
	defer leader.Stop()
	hello := func(proto int) (*wire.Envelope, error) {
		conn, err := net.Dial("tcp", leader.ClusterAddr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := wire.WriteMsg(conn, &wire.Envelope{Type: wire.MsgHello, Hello: &wire.Hello{
			NodeID: 1, Role: trainerRole, Epoch: 1, Proto: proto,
		}}); err != nil {
			t.Fatal(err)
		}
		return wire.ReadMsg(conn)
	}
	for _, proto := range []int{0, wire.ProtoVersion - 1, wire.ProtoVersion + 1} {
		if env, err := hello(proto); err == nil {
			t.Fatalf("proto %d: leader answered %v instead of closing", proto, env.Type)
		}
	}
	if cs := leader.Stats().Cluster; cs.Followers != 0 || cs.Syncs != 0 {
		t.Fatalf("refused peers were registered: %+v", cs)
	}
	env, err := hello(wire.ProtoVersion)
	if err != nil || env.Type != wire.MsgParamBcast || !env.ParamBcast.Sync {
		t.Fatalf("current-version trainer was not welcomed: %+v, %v", env, err)
	}
}
