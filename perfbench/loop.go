package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"time"

	"capes/internal/agent"
	"capes/internal/capes"
	"capes/internal/capesd"
	"capes/internal/wire"
)

// loadModel is printed with every result: the generator is one
// goroutine that sends tick t for every node in turn and sends t+1 only
// once the engine has finished t.
const loadModel = "closed loop, 1 client, window 1"

// While it waits for the tick in flight the generator first yields in a
// loop for pollSpin — a tick without a train step ends within that — and
// then sleeps pollInterval between looks, so that a long tick costs the
// generator no CPU. A look that finds the tick running blocks on the
// engine lock until the tick ends. (The host's timers may round the
// sleep up to a millisecond; the spin keeps that off the short ticks.)
const (
	pollSpin     = 300 * time.Microsecond
	pollInterval = 100 * time.Microsecond
)

// minibatch is Table 1's minibatch size, used by every workload.
const minibatch = 32

// sessionConfig is the capesd session a loop workload drives.
func sessionConfig(w spec, seed int64, name, checkpointDir string) capesd.SessionConfig {
	return capesd.SessionConfig{
		Name:            name,
		Listen:          "127.0.0.1:0",
		Clients:         w.Nodes,
		PIsPerClient:    pisPerNode,
		ObsTicks:        w.ObsTicks,
		CheckpointDir:   checkpointDir,
		Seed:            seed,
		TrainStartTicks: w.TrainStart,
		TrainEvery:      w.TrainEvery,
		MinibatchSize:   minibatch,
		ReplayCapacity:  w.ReplayCapacity,
	}
}

// engineConfig is the engine sessionConfig produces inside capesd,
// rebuilt from public pieces for the runs that own their engine (traced
// pipeline, cluster workers, layer pass). The traced run's set-up
// checks that both give the same action stream.
func engineConfig(w spec, seed int64) (capes.Config, error) {
	space, err := capes.NewActionSpace(capes.LustreTunables()...)
	if err != nil {
		return capes.Config{}, err
	}
	h := capes.DefaultHyperparameters()
	h.TicksPerObservation = w.ObsTicks
	h.TrainStartTicks = w.TrainStart
	h.TrainEvery = w.TrainEvery
	h.MinibatchSize = minibatch
	h.ReplayCapacity = w.ReplayCapacity
	if seed == 0 {
		seed = 1 // capesd's default
	}
	return capes.Config{
		Hyper:      h,
		Space:      space,
		Objective:  capes.ThroughputObjective(w.Nodes, pisPerNode, 2, 3),
		RewardMode: capes.RewardDelta,
		FrameWidth: w.Nodes * pisPerNode,
		Seed:       seed,
		Training:   true,
		Tuning:     true,
	}, nil
}

// trains reports whether tick t runs a train step under w's schedule.
func (w spec) trains(t int64) bool {
	return t >= w.TrainStart && t%w.TrainEvery == 0
}

// action is one parameter change as the control agent received it.
type action struct {
	wire.Action
	at time.Time
}

// actionRecorder drains a control agent's Actions channel from its own
// goroutine and stamps each arrival, as a real control agent would.
type actionRecorder struct {
	mu      sync.Mutex
	actions []action
	done    chan struct{}
}

func recordActions(a *agent.NodeAgent, tr *tracer) *actionRecorder {
	rec := &actionRecorder{done: make(chan struct{})}
	go func() {
		defer close(rec.done)
		for act := range a.Actions() {
			now := time.Now()
			tr.mark(markActionRecv, act.Tick, now)
			rec.mu.Lock()
			rec.actions = append(rec.actions, action{act, now})
			rec.mu.Unlock()
		}
	}()
	return rec
}

func (rec *actionRecorder) snapshot() []action {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]action(nil), rec.actions...)
}

func (rec *actionRecorder) count() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return len(rec.actions)
}

// rig is one running control loop plus the generator's view of it: node
// agents over loopback TCP in front of either a capesd session (the
// deployed path) or the benchmark's own daemon+engine (the traced path).
type rig struct {
	w      spec
	input  *piTrace
	ctx    context.Context // cancelled by SIGINT/SIGTERM: step gives up
	engine func() *capes.Engine
	// transport reads the daemon's counters.
	transport func() agent.TransportStats
	// stop tears the server side down.
	stop func() error

	agents []*agent.NodeAgent
	rec    *actionRecorder
	tracer *tracer // nil on the untraced path

	tick   int64 // last tick the ring holds
	filled int64 // leading ticks written straight into the ring in set-up, never sent
	polls  int64
}

// newSessionRig boots the deployed path: Manager → Session, one node
// agent per node, node 0 doubling as the control agent.
func newSessionRig(w spec, o options, input *piTrace, checkpointDir string) (*rig, *capesd.Session, error) {
	mgr := capesd.NewManager()
	sess, err := mgr.Create(sessionConfig(w, o.seed, "bench", checkpointDir))
	if err != nil {
		return nil, nil, err
	}
	r := &rig{
		w: w, input: input, ctx: o.ctx,
		engine:    sess.Engine,
		transport: func() agent.TransportStats { return sess.Stats().Transport },
		stop: func() error {
			if errs := mgr.Shutdown(); len(errs) > 0 {
				return errs[0]
			}
			return nil
		},
	}
	if err := r.dial(sess.Addr()); err != nil {
		r.close()
		return nil, nil, err
	}
	return r, sess, nil
}

// dial connects the node agents and starts the action recorder.
func (r *rig) dial(addr string) error {
	for n := 0; n < r.w.Nodes; n++ {
		role := "monitor"
		if n == 0 {
			role = "monitor+control"
		}
		a, err := agent.Dial(addr, n, pisPerNode, role)
		if err != nil {
			return fmt.Errorf("dial node %d: %w", n, err)
		}
		r.agents = append(r.agents, a)
	}
	r.rec = recordActions(r.agents[0], r.tracer)
	return nil
}

// close stops the agents, then the server side, and waits for the
// recorder goroutine.
func (r *rig) close() error {
	for _, a := range r.agents {
		a.Close()
	}
	err := r.stop()
	if r.rec != nil {
		<-r.rec.done
	}
	return err
}

// ticksDone counts the ticks the engine has finished. Every tick files
// exactly one entry in the action distribution (NULL included), and the
// read takes the engine lock, so a count of t means Tick(t) returned.
// Session.Stats().Engine.ReplayRecords cannot serve: it stops at
// replay_capacity once the ring is saturated.
func (r *rig) ticksDone() int64 {
	n := r.filled
	for _, c := range r.engine().ActionDistribution() {
		n += c
	}
	return n
}

// step sends the next tick for every node in turn, then waits until the
// engine has finished it. It returns when the tick's PIs were sampled
// (the first send began), when the last send returned and when the tick
// was seen finished.
func (r *rig) step() (sampled, sent, done time.Time, err error) {
	if err := r.ctx.Err(); err != nil {
		return sampled, sent, done, err
	}
	r.tick++
	t := r.tick
	sampled = time.Now()
	for n, a := range r.agents {
		start := time.Now()
		if err := a.SendIndicators(t, r.input.row(t, n)); err != nil {
			return sampled, sent, done, fmt.Errorf("tick %d node %d: %w", t, n, err)
		}
		r.tracer.span(spanSend, t, start, time.Now())
	}
	sent = time.Now()
	r.tracer.mark(markSent, t, sent)
	for {
		r.polls++
		if r.ticksDone() >= t {
			return sampled, sent, time.Now(), nil
		}
		switch waited := time.Since(sent); {
		case waited < pollSpin:
			runtime.Gosched()
		case waited < 30*time.Second:
			time.Sleep(pollInterval)
		default:
			return sampled, sent, done, fmt.Errorf("tick %d not ingested within 30s", t)
		}
	}
}

// run drives n ticks without keeping times (warm-up, determinism check).
func (r *rig) run(n int64) error {
	for i := int64(0); i < n; i++ {
		if _, _, _, err := r.step(); err != nil {
			return err
		}
	}
	return nil
}

// applied counts the non-NULL actions the engine has applied; each one
// is handed to the broadcast path exactly once.
func (r *rig) applied() int64 {
	var n int64
	for id, c := range r.engine().ActionDistribution() {
		if id != capes.NullAction {
			n += c
		}
	}
	return n
}

// settle waits until every action the engine applied has reached the
// recorder, so that action streams can be compared and counted. (The
// last one may still sit in the broadcast queue when its tick ends.)
func (r *rig) settle() error {
	want := r.applied()
	deadline := time.Now().Add(5 * time.Second)
	for int64(r.rec.count()) < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("control agent received %d of %d actions", r.rec.count(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// window is one measured stretch of the closed loop.
type window struct {
	*opLog
	first   int64       // first tick of the window
	sampled []time.Time // per tick: when its PIs were sampled
	sendNs  int64
	polls   int64
	before  procCounters
	after   procCounters
}

func (win *window) ticks() int { return len(win.done) }

// measure runs the closed loop for d and keeps every tick's times.
func (r *rig) measure(d time.Duration) (*window, error) {
	win := &window{first: r.tick + 1, before: readProcCounters(), opLog: newOpLog()}
	polls0 := r.polls
	limit := win.start.Add(d)
	for time.Now().Before(limit) {
		sampled, sent, done, err := r.step()
		if err != nil {
			return nil, err
		}
		win.sendNs += sent.Sub(sampled).Nanoseconds()
		win.sampled = append(win.sampled, sampled)
		win.add(done, -1)
	}
	win.close()
	win.polls = r.polls - polls0
	win.after = readProcCounters()
	return win, nil
}

// joinLatencies gives each tick of the window that led to an action its
// latency: tick t's PIs sampled (its first SendIndicators call begins)
// → Action{Tick: t} on the control agent's channel. The sends of one
// tick run one after the other, so the codec's cost per message counts
// once per node. It returns the latencies in nanoseconds.
func (win *window) joinLatencies(actions []action) []float64 {
	var out []float64
	for _, a := range actions {
		i := int(a.Tick - win.first)
		if i >= 0 && i < len(win.sampled) {
			win.lat[i] = float64(a.at.Sub(win.sampled[i]).Nanoseconds())
			out = append(out, win.lat[i])
		}
	}
	return out
}

// loopFailures counts what went wrong on a loop rig: every counter that
// marks a lost, partial or shed tick or a failed train step, plus any
// mismatch between ticks sent and frames assembled or actions delivered.
func (r *rig) loopFailures(sess *capesd.Session) (failed int64, notes []string) {
	add := func(n int64, what string) {
		if n != 0 {
			failed += n
			notes = append(notes, fmt.Sprintf("%s=%d", what, n))
		}
	}
	ts := r.transport()
	add(ts.PartialFrames, "partial_frames")
	add(ts.DroppedTicks, "dropped_ticks")
	add(ts.DroppedActions, "dropped_actions")
	add(abs64(ts.CompleteFrames-(r.tick-r.filled)), "complete_frames_vs_ticks_sent")
	add(abs64(r.applied()-int64(r.rec.count())), "actions_applied_vs_received")
	es := r.engine().Stats()
	add(es.MissedSamples, "missed_samples")
	add(es.TrainErrors, "train_errors")
	add(es.DivergenceTrips, "divergence_trips")
	add(abs64(r.ticksDone()-r.tick), "engine_ticks_vs_ticks_sent")
	if math.IsNaN(es.SmoothedLoss) || math.IsInf(es.SmoothedLoss, 0) {
		add(1, "non_finite_loss")
	}
	if sess != nil {
		sup := sess.Stats().Supervisor
		add(sup.ShedFrames, "shed_frames")
		add(sup.Trips, "supervisor_trips")
	}
	return failed, notes
}

func abs64(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}

// actionStream runs a fresh rig for n ticks and returns what the control
// agent received, for the determinism check.
func actionStream(build func() (*rig, error), n int64) ([]wire.Action, error) {
	r, err := build()
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.run(n); err != nil {
		return nil, err
	}
	if err := r.settle(); err != nil {
		return nil, err
	}
	var out []wire.Action
	for _, a := range r.rec.snapshot() {
		out = append(out, a.Action)
	}
	return out, nil
}

// checkDeterminism feeds the first ticks of the trace to two rigs with
// the same seed; they must deliver identical Action{Tick,ID,Values}
// streams. The check trains from tick 64 (or earlier) so that the
// network, not only the seeded exploration, shapes the stream.
func checkDeterminism(w spec, a, b func(spec) (*rig, error)) error {
	if w.TrainStart > w.DetTicks/2 {
		w.TrainStart = w.DetTicks / 2
	}
	first, err := actionStream(func() (*rig, error) { return a(w) }, w.DetTicks)
	if err != nil {
		return fmt.Errorf("determinism check: %w", err)
	}
	second, err := actionStream(func() (*rig, error) { return b(w) }, w.DetTicks)
	if err != nil {
		return fmt.Errorf("determinism check: %w", err)
	}
	if len(first) == 0 {
		return fmt.Errorf("determinism check: no actions in %d ticks", w.DetTicks)
	}
	if !reflect.DeepEqual(first, second) {
		return fmt.Errorf("determinism check: same seed, different action streams (%d vs %d actions)", len(first), len(second))
	}
	return nil
}

// runLoop measures a loop workload: untraced through capesd, or traced
// through the benchmark's own assembly of the same pieces.
func runLoop(w spec, o options) (*result, error) {
	if o.trace {
		return runLoopTraced(w, o)
	}
	res := newResult(w, o)
	var r *rig
	var sess *capesd.Session
	setup := func() error {
		input, err := newPITrace(w, o.seed)
		if err != nil {
			return err
		}
		session := func(w spec) (*rig, error) {
			r, _, err := newSessionRig(w, o, input, "")
			return r, err
		}
		if err := checkDeterminism(w, session, session); err != nil {
			return err
		}
		if r, sess, err = newSessionRig(w, o, input, ""); err != nil {
			return err
		}
		return r.run(w.Warmup)
	}
	teardown := func() error { return r.close() }
	if err := res.timeSetup(o, setup, teardown); err != nil {
		return nil, err
	}
	defer r.close()

	win, err := r.measure(o.window())
	if err != nil {
		return nil, err
	}
	if err := r.settle(); err != nil {
		res.Notes = append(res.Notes, err.Error())
	}
	if len(win.joinLatencies(r.rec.snapshot())) == 0 {
		return nil, fmt.Errorf("no action reached the control agent in %d ticks", win.ticks())
	}
	res.Attempted = int64(win.ticks())
	failed, notes := r.loopFailures(sess)
	res.fail(failed, notes...)

	win.summarize().report(res.metrics)
	res.metrics.set("heap_live_mb", heapLiveMB())
	return res, nil
}
