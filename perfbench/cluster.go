package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"

	"capes/internal/capes"
	"capes/internal/replay"
)

// Roles a re-executed benchmark binary plays (childEnv). Every worker is
// its own OS process at GOMAXPROCS=1, so that the workers' tensor pools
// do not share one scheduler the way an in-process cluster bench does.
const (
	roleSolo     = "solo" // plain engine, the single-worker baseline
	roleLeader   = capes.ClusterLeader
	roleFollower = capes.ClusterFollower
)

// workerMsg is one stdout line of a worker process.
type workerMsg struct {
	Addr   string        `json:"addr,omitempty"`  // leader: gradient-plane address
	Ready  bool          `json:"ready,omitempty"` // set-up done, window starts now
	Result *workerResult `json:"result,omitempty"`
}

// workerResult is what a worker measured on its own engine.
type workerResult struct {
	Role        string              `json:"role"`
	Steps       int64               `json:"steps"`    // train steps at exit
	Checksum    float64             `json:"checksum"` // sum of the online parameters
	Window      summary             `json:"window"`   // the worker's own window, by segments
	TickStart   []int64             `json:"tick_start_unix_ns"`
	TickNs      []float64           `json:"tick_ns"` // Engine.Tick wall time per window tick
	HeapLiveMB  float64             `json:"heap_live_mb"`
	TrainErrors int64               `json:"train_errors"`
	Missed      int64               `json:"missed_samples"`
	Cluster     *capes.ClusterStats `json:"cluster,omitempty"`
}

// clusterChild is main() of a worker process.
func clusterChild(ctx context.Context, role string) int {
	fs := flag.NewFlagSet(role, flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "")
	seconds := fs.Float64("seconds", 1, "")
	leader := fs.String("leader", "", "")
	short := fs.Bool("short", false, "")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := findWorkload("cluster-1follower")
	if err == nil {
		if *short {
			w = w.shortened()
		}
		o := options{seed: *seed, seconds: *seconds, short: *short, ctx: ctx}
		err = runWorker(role, w, o, *leader)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s worker: %v\n", role, err)
		return 1
	}
	return 0
}

func say(msg workerMsg) {
	buf, _ := json.Marshal(msg)
	fmt.Println(string(buf))
}

// fedEngine is an engine at a workload's shape that is fed the trace
// through its Collector, one tick per call, with no agent transport.
type fedEngine struct {
	eng   *capes.Engine
	input *piTrace
	now   int64
}

func newFedEngine(w spec, o options, cluster *capes.ClusterConfig) (*fedEngine, error) {
	input, err := newPITrace(w, o.seed)
	if err != nil {
		return nil, err
	}
	cfg, err := engineConfig(w, o.seed)
	if err != nil {
		return nil, err
	}
	cfg.Cluster = cluster
	f := &fedEngine{input: input}
	f.eng, err = capes.NewEngine(cfg, func() (replay.Frame, error) { return input.frame(f.now), nil }, noopController)
	return f, err
}

// tick runs the next tick and returns how long Engine.Tick took.
func (f *fedEngine) tick() time.Duration {
	f.now++
	start := time.Now()
	f.eng.Tick(f.now)
	return time.Since(start)
}

// runWorker builds one engine at the cluster shape and ticks it in the
// given role.
func runWorker(role string, w spec, o options, leaderAddr string) error {
	var cluster *capes.ClusterConfig
	switch role {
	case roleLeader:
		cluster = &capes.ClusterConfig{Role: role, Listen: "127.0.0.1:0", CollectTimeout: 30 * time.Second}
	case roleFollower:
		cluster = &capes.ClusterConfig{Role: role, LeaderAddr: leaderAddr, Rank: 1, SyncTimeout: 30 * time.Second}
	}
	f, err := newFedEngine(w, o, cluster)
	if err != nil {
		return err
	}
	eng, tick := f.eng, f.tick
	defer eng.Stop()
	if role == roleLeader {
		say(workerMsg{Addr: eng.ClusterAddr()})
	}
	// Saturate the ring before the first train step (TrainStart is one
	// past the fill), so every step of every worker samples a full ring
	// and the leader never steps alone.
	for f.now < w.FillTicks {
		tick()
	}
	switch role {
	case roleFollower:
		if err := eng.ClusterSync(); err != nil {
			return fmt.Errorf("sync with leader: %w", err)
		}
		return followLeader(eng, tick)
	case roleLeader:
		deadline := time.Now().Add(60 * time.Second)
		for eng.Stats().Cluster.Followers < 1 {
			if time.Now().After(deadline) || o.ctx.Err() != nil {
				return fmt.Errorf("no follower joined")
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := int64(0); i < w.SetupSteps; i++ {
		tick()
	}
	say(workerMsg{Ready: true})

	res := &workerResult{Role: role}
	log := newOpLog()
	limit := log.start.Add(o.window())
	for time.Now().Before(limit) && o.ctx.Err() == nil {
		res.TickStart = append(res.TickStart, time.Now().UnixNano())
		res.TickNs = append(res.TickNs, float64(tick().Nanoseconds()))
		log.add(time.Now(), res.TickNs[len(res.TickNs)-1])
	}
	finishWorker(eng, res, log)
	return nil
}

// followLeader ticks a follower for as long as the leader answers: each
// train tick pushes a gradient frame and blocks for the broadcast, so
// the follower keeps the leader's pace and stops when the leader does.
func followLeader(eng *capes.Engine, tick func() time.Duration) error {
	res := &workerResult{Role: roleFollower}
	log := newOpLog()
	for {
		at := time.Now().UnixNano()
		took := tick()
		if cs := eng.Stats().Cluster; !cs.Synced || cs.BcastMisses > 0 {
			break // the leader closed the gradient plane
		}
		res.TickStart = append(res.TickStart, at)
		res.TickNs = append(res.TickNs, float64(took.Nanoseconds()))
		log.add(time.Now(), res.TickNs[len(res.TickNs)-1])
	}
	finishWorker(eng, res, log)
	return nil
}

// finishWorker closes the window, stops the engine (the leader closes
// the gradient plane here) and reports the worker's final state.
func finishWorker(eng *capes.Engine, res *workerResult, log *opLog) {
	log.close()
	res.Window = log.summarize()
	st := eng.Stats()
	eng.Stop()
	for _, p := range eng.Agent().Online.FlatParams() {
		res.Checksum += float64(p)
	}
	res.Steps, res.TrainErrors, res.Missed, res.Cluster = st.TrainSteps, st.TrainErrors, st.MissedSamples, st.Cluster
	res.HeapLiveMB = heapLiveMB()
	say(workerMsg{Result: res})
}

// worker is a child process as the parent sees it.
type worker struct {
	cmd   *exec.Cmd
	lines *bufio.Scanner
}

// startWorker re-executes the running binary in the given role.
func startWorker(o options, role string, seconds float64, leaderAddr string) (*worker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{fmt.Sprintf("-seed=%d", o.seed), fmt.Sprintf("-seconds=%g", seconds), "-leader=" + leaderAddr}
	if o.short {
		args = append(args, "-short")
	}
	cmd := exec.CommandContext(o.ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"="+role, "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	lines := bufio.NewScanner(out)
	lines.Buffer(nil, 64<<20) // a result line carries every tick's time
	return &worker{cmd, lines}, nil
}

// next reads the worker's next message.
func (wk *worker) next() (workerMsg, error) {
	var msg workerMsg
	if !wk.lines.Scan() {
		if err := wk.lines.Err(); err != nil {
			return msg, err
		}
		return msg, fmt.Errorf("worker exited without a result")
	}
	return msg, json.Unmarshal(wk.lines.Bytes(), &msg)
}

// result reads up to the worker's result and waits for it to exit.
func (wk *worker) result() (*workerResult, error) {
	for {
		msg, err := wk.next()
		if err != nil {
			wk.kill()
			return nil, err
		}
		if msg.Result != nil {
			return msg.Result, wk.cmd.Wait()
		}
	}
}

// kill stops the worker and waits until it has ended.
func (wk *worker) kill() {
	if wk == nil {
		return
	}
	wk.cmd.Process.Kill()
	wk.cmd.Wait()
}

// cluster is a leader and a follower process, past set-up.
type cluster struct{ leader, follower *worker }

// startCluster spawns both workers and returns once the leader says its
// set-up (ring fill, follower join, warm-up steps) is done; the leader's
// window has then begun and the parent only waits.
func startCluster(o options, seconds float64) (*cluster, error) {
	leader, err := startWorker(o, roleLeader, seconds, "")
	if err != nil {
		return nil, err
	}
	msg, err := leader.next()
	if err != nil || msg.Addr == "" {
		leader.kill()
		return nil, fmt.Errorf("leader did not report its address: %v", err)
	}
	follower, err := startWorker(o, roleFollower, seconds, msg.Addr)
	if err != nil {
		leader.kill()
		return nil, err
	}
	c := &cluster{leader, follower}
	if msg, err := leader.next(); err != nil || !msg.Ready {
		c.kill()
		return nil, fmt.Errorf("leader did not get ready: %v", err)
	}
	return c, nil
}

func (c *cluster) kill() {
	if c != nil {
		c.leader.kill()
		c.follower.kill()
	}
}

// results waits for both workers.
func (c *cluster) results() (leader, follower *workerResult, err error) {
	if leader, err = c.leader.result(); err != nil {
		c.follower.kill()
		return nil, nil, fmt.Errorf("leader: %w", err)
	}
	if follower, err = c.follower.result(); err != nil {
		return nil, nil, fmt.Errorf("follower: %w", err)
	}
	return leader, follower, nil
}

// clusterFailures checks the cluster's own invariants: both workers end
// on the same step with bit-identical parameters, and every leader step
// folded the follower's gradient frame.
func clusterFailures(leader, follower *workerResult) (failed int64, notes []string) {
	add := func(n int64, what string) {
		if n != 0 {
			failed += n
			notes = append(notes, fmt.Sprintf("%s=%d", what, n))
		}
	}
	if leader.Checksum != follower.Checksum {
		add(int64(leader.Window.Ops), fmt.Sprintf("parameter checksums differ (%v vs %v), failed_steps", leader.Checksum, follower.Checksum))
	}
	add(abs64(leader.Steps-follower.Steps), "leader_vs_follower_steps")
	cs := leader.Cluster
	add(abs64(cs.AggrSteps-leader.Steps), "steps_without_follower_frame")
	add(cs.SoloSteps, "solo_steps")
	add(cs.CollectTimeouts, "collect_timeouts")
	add(cs.FramesStale, "stale_frames")
	add(cs.Evictions, "evictions")
	add(leader.TrainErrors+follower.TrainErrors, "train_errors")
	add(leader.Missed+follower.Missed, "missed_samples")
	return failed, notes
}

// runCluster measures cluster-1follower. Untraced: the leader's window
// of cluster steps. Traced: a solo worker first as the single-worker
// baseline, then the cluster with a span around every Engine.Tick of
// both processes, then the layer pass at the cluster's shape.
func runCluster(w spec, o options) (*result, error) {
	res := newResult(w, o)
	m := res.metrics
	if o.trace {
		return runClusterTraced(w, o, res)
	}
	var c *cluster
	defer func() { c.kill() }()
	setup := func() (err error) {
		c, err = startCluster(o, o.seconds)
		return err
	}
	teardown := func() error { c.kill(); return nil }
	if err := res.timeSetup(o, setup, teardown); err != nil {
		return nil, err
	}
	leader, follower, err := c.results()
	if err != nil {
		return nil, err
	}
	res.Attempted = int64(leader.Window.Ops)
	failed, notes := clusterFailures(leader, follower)
	res.fail(failed, notes...)
	if leader.Window.Ops == 0 || follower.Window.Ops == 0 {
		return nil, fmt.Errorf("no cluster step completed in the window")
	}
	sum := leader.Window
	sum.CPUMsPerOp += follower.Window.CPUMsPerOp // a step costs both workers' CPU
	sum.report(m)
	m.set("heap_live_mb", leader.HeapLiveMB)
	return res, nil
}

func runClusterTraced(w spec, o options, res *result) (*result, error) {
	m := res.metrics
	t0 := time.Now()
	solo, err := startWorker(o, roleSolo, o.seconds/3, "")
	if err != nil {
		return nil, err
	}
	soloRes, err := solo.result()
	if err != nil {
		return nil, fmt.Errorf("solo: %w", err)
	}
	c, err := startCluster(o, 2*o.seconds/3)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	leader, follower, err := c.results()
	if err != nil {
		return nil, err
	}
	res.Attempted = int64(soloRes.Window.Ops + leader.Window.Ops)
	failed, notes := clusterFailures(leader, follower)
	res.fail(failed, notes...)
	res.fail(soloRes.TrainErrors+soloRes.Missed, "solo worker train errors or missed samples")

	tr := newTracer("")
	tr.t0 = t0
	for _, wr := range []*workerResult{soloRes, leader, follower} {
		for i, at := range wr.TickStart {
			start := time.Unix(0, at)
			tr.span("capes."+wr.Role+"_tick", int64(i+1), start, start.Add(time.Duration(wr.TickNs[i])))
		}
	}
	if err := tr.write(w, o); err != nil {
		return nil, err
	}
	m.setTiming("capes.solo_tick_ms", soloRes.TickNs, 1e6)
	m.setTiming("capes.leader_tick_ms", leader.TickNs, 1e6)
	m.setTiming("capes.follower_tick_ms", follower.TickNs, 1e6)
	soloSamples := soloRes.Window.OpsPerS * minibatch
	clusterSamples := leader.Window.OpsPerS * minibatch * 2
	m.set("capes.solo_samples_per_s", soloSamples)
	m.set("capes.cluster_samples_per_s", clusterSamples)
	if soloSamples > 0 {
		m.set("capes.cluster_scaling_efficiency", clusterSamples/(2*soloSamples))
	}
	m.set("capes.cluster_collect_timeouts", float64(leader.Cluster.CollectTimeouts))
	m.set("capes.cluster_stale_frames", float64(leader.Cluster.FramesStale))
	m.set("capes.cluster_evictions", float64(leader.Cluster.Evictions))

	// Layer pass at the cluster's shape, on a plain engine of this
	// process that has filled its ring and taken the set-up's steps.
	f, err := newFedEngine(w, o, nil)
	if err != nil {
		return nil, err
	}
	defer f.eng.Stop()
	for f.now < w.FillTicks+w.SetupSteps {
		f.tick()
	}
	if err := layerPass(m, o, w, f.input, f.eng, func() { f.tick() }); err != nil {
		return nil, err
	}
	return res, nil
}
