package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"capes/internal/agent"
	"capes/internal/capes"
	"capes/internal/replay"
)

// Span names. Every span of one tick carries the tick number as its id;
// the root "tick" span is the parent of the other four.
const (
	spanTick      = "tick"
	spanSend      = "agent.send"      // one NodeAgent.SendIndicators call
	spanAssemble  = "agent.assemble"  // last send returned → FrameSink invoked
	spanEngine    = "capes.tick"      // Engine.Tick
	spanBroadcast = "agent.broadcast" // BroadcastAction called → action on Actions()
)

// Marks are instants one goroutine records for a span another closes.
const (
	markSent = iota
	markBroadcastCall
	markActionRecv
)

// span is one timed interval at a layer boundary, in nanoseconds since
// the trace began.
type span struct {
	Name   string `json:"name"`
	Tick   int64  `json:"tick"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

type markKey struct {
	kind int
	tick int64
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced path runs the same generator code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	root  string // name of the root span, the parent of every other
	spans []span
	marks map[markKey]int64
}

func newTracer(root string) *tracer {
	return &tracer{t0: time.Now(), root: root, marks: map[markKey]int64{}}
}

func (tr *tracer) span(name string, tick int64, start, end time.Time) {
	if tr == nil {
		return
	}
	s := span{Name: name, Tick: tick, Start: start.Sub(tr.t0).Nanoseconds(), End: end.Sub(tr.t0).Nanoseconds()}
	if name != tr.root {
		s.Parent = tr.root
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

func (tr *tracer) mark(kind int, tick int64, at time.Time) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.marks[markKey{kind, tick}] = at.Sub(tr.t0).Nanoseconds()
	tr.mu.Unlock()
}

// tickSpans is one tick's spans, grouped for analysis.
type tickSpans struct {
	sends                       []span
	assemble, engine, broadcast *span
	root                        span
}

// finish closes the spans that cross goroutines (assemble, broadcast,
// the root) from the marks and returns the ticks from `first` on, in
// order. Call it once every goroutine that records has stopped.
func (tr *tracer) finish(first int64) []tickSpans {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	byTick := map[int64]*tickSpans{}
	for _, s := range tr.spans {
		ts := byTick[s.Tick]
		if ts == nil {
			ts = &tickSpans{}
			byTick[s.Tick] = ts
		}
		s := s
		switch s.Name {
		case spanSend:
			ts.sends = append(ts.sends, s)
		case spanEngine:
			ts.engine = &s
		}
	}
	var ticks []int64
	for t, ts := range byTick {
		if t >= first && ts.engine != nil && len(ts.sends) > 0 {
			ticks = append(ticks, t)
		}
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })

	tr.spans = tr.spans[:0]
	out := make([]tickSpans, 0, len(ticks))
	for _, t := range ticks {
		ts := byTick[t]
		end := ts.engine.End
		if sent, ok := tr.marks[markKey{markSent, t}]; ok {
			stop := ts.engine.Start
			if stop < sent {
				stop = sent // the daemon ran the sink before the send returned
			}
			ts.assemble = &span{Name: spanAssemble, Tick: t, Start: sent, End: stop, Parent: spanTick}
		}
		call, ok1 := tr.marks[markKey{markBroadcastCall, t}]
		recv, ok2 := tr.marks[markKey{markActionRecv, t}]
		if ok1 && ok2 {
			ts.broadcast = &span{Name: spanBroadcast, Tick: t, Start: call, End: recv, Parent: spanTick}
			if recv > end {
				end = recv
			}
		}
		ts.root = span{Name: spanTick, Tick: t, Start: ts.sends[0].Start, End: end}
		tr.spans = append(tr.spans, ts.root)
		tr.spans = append(tr.spans, ts.sends...)
		for _, s := range []*span{ts.assemble, ts.engine, ts.broadcast} {
			if s != nil {
				tr.spans = append(tr.spans, *s)
			}
		}
		out = append(out, *ts)
	}
	return out
}

// covered is how much of the interval [lo, hi] the spans cover, counting
// overlap once: a span's self time is its duration minus this over its
// children.
func covered(lo, hi int64, spans ...span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	at := lo
	for _, s := range spans {
		start, end := s.Start, s.End
		if start < at {
			start = at
		}
		if end > hi {
			end = hi
		}
		if end > start {
			total += end - start
			at = end
		}
	}
	return float64(total)
}

// traceFile is what lands in perfbench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (tr *tracer) write(w spec, o options) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return writeJSON(filepath.Join(outDir, "trace-"+w.Name+".json"), traceFile{w.Name, o.seed, tr.spans})
}

// assembled is the control loop put together from the same public
// pieces capesd.Session uses — agent.NewDaemonOpts, capes.NewEngine, an
// action-hook goroutine calling BroadcastAction — owned by the benchmark
// so that a span can open at every boundary.
type assembled struct {
	*rig
	eng *capes.Engine
	// feed hands one frame to the engine and ticks it: the daemon's
	// FrameSink, and the layer pass's way in once the transport is down.
	feed func(t int64, frame []float64)
	// stopTransport closes agents and daemon but leaves the engine live.
	stopTransport func() error
}

type broadcastMsg struct {
	tick   int64
	action int
	values []float64
}

func newAssembled(w spec, o options, input *piTrace, tr *tracer) (*assembled, error) {
	cfg, err := engineConfig(w, o.seed)
	if err != nil {
		return nil, err
	}
	var frameMu sync.Mutex
	var latest replay.Frame
	eng, err := capes.NewEngine(cfg,
		func() (replay.Frame, error) {
			frameMu.Lock()
			defer frameMu.Unlock()
			if latest == nil {
				return nil, fmt.Errorf("no frame yet")
			}
			return latest, nil
		},
		noopController)
	if err != nil {
		return nil, err
	}
	feed := func(t int64, frame []float64) {
		frameMu.Lock()
		latest = frame
		frameMu.Unlock()
		start := time.Now()
		eng.Tick(t)
		tr.span(spanEngine, t, start, time.Now())
	}
	dmn, err := agent.NewDaemonOpts("127.0.0.1:0", w.Nodes, pisPerNode, feed, nil, agent.DaemonOpts{})
	if err != nil {
		eng.Stop()
		return nil, err
	}
	// The hook runs under the engine lock and must not touch the network.
	// One tick is in flight, so 16 slots never fill and the send never blocks.
	bcast := make(chan broadcastMsg, 16)
	bcastDone := make(chan struct{})
	go func() {
		defer close(bcastDone)
		for msg := range bcast {
			tr.mark(markBroadcastCall, msg.tick, time.Now())
			dmn.BroadcastAction(msg.tick, msg.action, msg.values)
		}
	}()
	eng.SetActionHook(func(tick int64, action int, values []float64) {
		bcast <- broadcastMsg{tick, action, append([]float64(nil), values...)}
	})

	a := &assembled{eng: eng, feed: feed}
	a.rig = &rig{
		w: w, input: input, ctx: o.ctx, tracer: tr,
		engine:    func() *capes.Engine { return eng },
		transport: dmn.TransportStats,
	}
	var transportOnce, engineOnce sync.Once
	var stopErr error
	a.stopTransport = func() error {
		transportOnce.Do(func() {
			for _, ag := range a.agents {
				ag.Close()
			}
			stopErr = dmn.Close()
			if a.rec != nil {
				<-a.rec.done
			}
		})
		return stopErr
	}
	a.stop = func() error {
		err := a.stopTransport()
		engineOnce.Do(func() {
			eng.Stop()
			close(bcast)
			<-bcastDone
		})
		return err
	}
	if err := a.dial(dmn.Addr()); err != nil {
		a.close()
		return nil, err
	}
	return a, nil
}

// runLoopTraced is the --trace 1 run of a loop workload: half the
// window through capesd as the untraced reference, half through the
// assembled pipeline with spans, then the layer pass on the engine state
// the traced half left behind.
func runLoopTraced(w spec, o options) (*result, error) {
	res := newResult(w, o)
	m := res.metrics
	input, err := newPITrace(w, o.seed)
	if err != nil {
		return nil, err
	}
	// Same seed, same inputs: capesd's session and the benchmark's own
	// assembly must deliver the same actions, or the spans would describe
	// a different engine than the one the end-to-end numbers come from.
	err = checkDeterminism(w,
		func(w spec) (*rig, error) {
			r, _, err := newSessionRig(w, o, input, "")
			return r, err
		},
		func(w spec) (*rig, error) {
			a, err := newAssembled(w, o, input, nil)
			if err != nil {
				return nil, err
			}
			return a.rig, nil
		})
	if err != nil {
		return nil, err
	}

	// Reference half: the deployed path, untraced.
	createStart := time.Now()
	ref, sess, err := newSessionRig(w, o, input, "")
	if err != nil {
		return nil, err
	}
	defer ref.close()
	m.set("capesd.session_create_ms", float64(time.Since(createStart).Microseconds())/1e3)
	if err := ref.run(w.Warmup); err != nil {
		return nil, err
	}
	refWin, err := ref.measure(o.window() / 2)
	if err != nil {
		return nil, err
	}
	if err := ref.settle(); err != nil {
		res.Notes = append(res.Notes, err.Error())
	}
	lat := refWin.joinLatencies(ref.rec.snapshot())
	m.set("agent.tick_to_action_p99_ms", percentile(lat, 0.99)/1e6)
	m.samples["agent.tick_to_action_p99_ms"] = len(lat)
	m.setTiming("capesd.stats_us", timeOp(o.rounds(200), 1, func() { sess.Stats() }), 1e3)
	pollNs := median(timeOp(o.rounds(200), 1, func() { ref.ticksDone() }))
	refNs := float64(refWin.end.Sub(refWin.start).Nanoseconds())
	refTicks := float64(refWin.ticks())
	m.set("gen.poll_share", float64(refWin.polls)*pollNs/refNs)
	m.set("gen.send_share", float64(refWin.sendNs)/refNs)
	m.set("proc.allocs_per_tick", float64(refWin.after.mallocs-refWin.before.mallocs)/refTicks)
	m.set("proc.alloc_kb_per_tick", float64(refWin.after.bytes-refWin.before.bytes)/1024/refTicks)
	m.set("proc.gc_pause_ms", float64(refWin.after.pauseNs-refWin.before.pauseNs)/1e6)
	var sentBytes, sentMsgs int64
	for _, a := range ref.agents {
		b, n := a.TrafficStats()
		sentBytes, sentMsgs = sentBytes+b, sentMsgs+n
	}
	m.set("agent.bytes_per_tick", float64(sentBytes)/float64(ref.tick))
	m.set("agent.msgs_per_tick", float64(sentMsgs)/float64(ref.tick))
	failed, notes := ref.loopFailures(sess)
	res.fail(failed, notes...)
	ts := ref.transport()
	sup := sess.Stats().Supervisor
	m.set("agent.partial_frames", float64(ts.PartialFrames))
	m.set("agent.dropped_ticks", float64(ts.DroppedTicks))
	m.set("agent.dropped_actions", float64(ts.DroppedActions))
	m.set("capesd.shed_frames", float64(sup.ShedFrames))
	m.set("capesd.supervisor_trips", float64(sup.Trips))
	if err := ref.close(); err != nil {
		return nil, err
	}

	// Traced half: the same pieces, assembled here, a span at every boundary.
	tr := newTracer(spanTick)
	asm, err := newAssembled(w, o, input, tr)
	if err != nil {
		return nil, err
	}
	defer asm.close()
	if err := asm.run(w.Warmup); err != nil {
		return nil, err
	}
	win, err := asm.measure(o.window() / 2)
	if err != nil {
		return nil, err
	}
	if err := asm.settle(); err != nil {
		res.Notes = append(res.Notes, err.Error())
	}
	failed, notes = asm.loopFailures(nil)
	res.fail(failed, notes...)
	res.Attempted = int64(refWin.ticks() + win.ticks())
	if err := asm.stopTransport(); err != nil {
		return nil, err
	}

	var send, assemble, broadcast, train, notrain, accounted []float64
	for _, t := range tr.finish(win.first) {
		critical := append([]span{*t.engine}, t.sends...)
		for _, s := range t.sends {
			send = append(send, s.dur())
		}
		if t.assemble != nil {
			assemble = append(assemble, t.assemble.dur())
			critical = append(critical, *t.assemble)
		}
		if t.broadcast != nil {
			broadcast = append(broadcast, t.broadcast.dur())
		}
		if w.trains(t.root.Tick) {
			train = append(train, t.engine.dur())
		} else {
			notrain = append(notrain, t.engine.dur())
		}
		// Sends, assembly and the engine tick run one after the other and
		// block the next tick; the broadcast overlaps the train step.
		accounted = append(accounted, covered(t.root.Start, t.root.End, critical...))
	}
	m.setTiming("agent.send_us", send, 1e3)
	m.setTiming("agent.assemble_us", assemble, 1e3)
	m.setTiming("agent.broadcast_us", broadcast, 1e3)
	m.setTiming("capes.tick_train_us", train, 1e3)
	m.setTiming("capes.tick_notrain_us", notrain, 1e3)

	refPerTick := refNs / refTicks
	tracedRate := float64(win.ticks()) / win.end.Sub(win.start).Seconds()
	refRate := refTicks / (refNs / 1e9)
	m.set("capesd.tick_overhead_us", (refPerTick-mean(accounted))/1e3)
	m.set("trace.accounted_pct", 100*mean(accounted)/refPerTick)
	m.set("trace.overhead_pct", 100*(refRate-tracedRate)/refRate)
	if err := tr.write(w, o); err != nil {
		return nil, err
	}

	// Layer pass: the engine is still live, its transport is down.
	next := asm.tick
	err = layerPass(m, o, w, input, asm.eng, func() {
		next++
		asm.feed(next, input.frame(next))
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
