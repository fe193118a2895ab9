package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"capes/internal/capesd"
)

// Span names of one checkpoint cycle; the root's id is the cycle number.
const (
	spanCycle      = "cycle"
	spanCheckpoint = "capesd.checkpoint" // Session.Checkpoint
	spanRestore    = "capesd.restore"    // Manager.Create over an existing checkpoint
	spanDelete     = "capesd.delete"     // Manager.Delete (writes its own checkpoint first)
)

// checkpointRig is a session shaped like paper-rig-train with a large,
// full replay ring and a trained network, ready to be checkpointed.
type checkpointRig struct {
	*rig
	sess *capesd.Session
	dir  string // scratch directory holding the checkpoint
}

// newCheckpointRig fills the ring straight through Engine.DB() — pushing
// 32768 ticks through loopback TCP would take longer than the whole run
// may — then takes the set-up's train steps through the real path.
func newCheckpointRig(w spec, o options) (*checkpointRig, error) {
	input, err := newPITrace(w, o.seed)
	if err != nil {
		return nil, err
	}
	dir, err := tempDir("checkpoint")
	if err != nil {
		return nil, err
	}
	r, sess, err := newSessionRig(w, o, input, filepath.Join(dir, "ckpt"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	c := &checkpointRig{rig: r, sess: sess, dir: dir}
	db := sess.Engine().DB()
	rng := rand.New(rand.NewSource(o.seed))
	actions := 2*2 + 1 // the two Lustre tunables, up or down, plus NULL
	for t := int64(1); t <= w.FillTicks; t++ {
		if err := db.PutFrame(t, input.frame(t)); err != nil {
			c.close()
			return nil, err
		}
		db.PutAction(t, rng.Intn(actions))
	}
	r.tick, r.filled = w.FillTicks, w.FillTicks
	if err := r.run(w.SetupSteps); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *checkpointRig) close() error {
	err := c.rig.close()
	os.RemoveAll(c.dir)
	return err
}

// cycle is one operation of the workload: checkpoint the live session,
// boot a second manager on the same checkpoint_dir, compare what it
// restored with the saver, delete it. It returns what differed.
func (c *checkpointRig) cycle(n int64, o options, tr *tracer) (took time.Duration, mismatches []string, err error) {
	begin := time.Now()
	if err := c.sess.Checkpoint(); err != nil {
		return 0, nil, err
	}
	saved := time.Now()
	tr.span(spanCheckpoint, n, begin, saved)

	mgr := capesd.NewManager()
	defer mgr.Shutdown()
	restored, err := mgr.Create(sessionConfig(c.w, o.seed, "restored", c.sess.Stats().CheckpointDir))
	if err != nil {
		return 0, nil, fmt.Errorf("restore: %w", err)
	}
	booted := time.Now()
	tr.span(spanRestore, n, saved, booted)

	want, got := c.sess.Stats(), restored.Stats()
	if !got.Restored {
		mismatches = append(mismatches, "second manager did not restore")
	}
	if got.Engine.ReplayRecords != want.Engine.ReplayRecords {
		mismatches = append(mismatches, fmt.Sprintf("replay_records %d != %d", got.Engine.ReplayRecords, want.Engine.ReplayRecords))
	}
	if got.Engine.TrainSteps != want.Engine.TrainSteps {
		mismatches = append(mismatches, fmt.Sprintf("train_steps %d != %d", got.Engine.TrainSteps, want.Engine.TrainSteps))
	}
	if !reflect.DeepEqual(got.CurrentValues, want.CurrentValues) {
		mismatches = append(mismatches, fmt.Sprintf("current_values %v != %v", got.CurrentValues, want.CurrentValues))
	}
	compared := time.Now()
	if err := mgr.Delete("restored"); err != nil {
		return 0, nil, fmt.Errorf("delete: %w", err)
	}
	end := time.Now()
	tr.span(spanDelete, n, compared, end)
	tr.span(spanCycle, n, begin, end)
	return end.Sub(begin), mismatches, nil
}

// runCheckpoint measures checkpoint-cycle: cycles back to back for the
// window; traced, the same cycles with a span around each capesd call,
// then the layer pass on the session's engine.
func runCheckpoint(w spec, o options) (*result, error) {
	res := newResult(w, o)
	m := res.metrics
	var c *checkpointRig
	setup := func() (err error) {
		c, err = newCheckpointRig(w, o)
		return err
	}
	if err := res.timeSetup(o, setup, func() error { return c.close() }); err != nil {
		return nil, err
	}
	defer c.close()

	var tr *tracer
	if o.trace {
		tr = newTracer(spanCycle)
	}
	log := newOpLog()
	limit := log.start.Add(o.window())
	for n := int64(1); time.Now().Before(limit); n++ {
		d, mismatches, err := c.cycle(n, o, tr)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if len(mismatches) > 0 {
			res.fail(1, mismatches...)
		}
		log.add(time.Now(), float64(d.Nanoseconds()))
		if err := o.ctx.Err(); err != nil {
			return nil, err
		}
	}
	log.close()
	if err := c.settle(); err != nil {
		res.Notes = append(res.Notes, err.Error())
	}
	failed, notes := c.loopFailures(c.sess)
	res.fail(failed, notes...)

	if !o.trace {
		log.summarize().report(m)
		m.set("heap_live_mb", heapLiveMB())
		return res, nil
	}

	byName := map[string][]float64{}
	tr.mu.Lock()
	for _, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], s.dur())
	}
	tr.mu.Unlock()
	m.setTiming("capesd.checkpoint_save_ms", byName[spanCheckpoint], 1e6)
	m.setTiming("capesd.checkpoint_restore_ms", byName[spanRestore], 1e6)
	if err := tr.write(w, o); err != nil {
		return nil, err
	}
	m.setTiming("capesd.stats_us", timeOp(o.rounds(200), 1, func() { c.sess.Stats() }), 1e3)
	sup := c.sess.Stats().Supervisor
	m.set("capesd.shed_frames", float64(sup.ShedFrames))
	m.set("capesd.supervisor_trips", float64(sup.Trips))
	if err := layerPass(m, o, w, c.input, c.sess.Engine(), nil); err != nil {
		return nil, err
	}
	return res, nil
}
