package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"capes/internal/capes"
	"capes/internal/nn"
	"capes/internal/replay"
	"capes/internal/tensor"
	"capes/internal/wire"
)

// tempDir makes a scratch directory under outDir; the benchmark writes
// nowhere else. The caller removes it.
func tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, prefix+"-")
}

func fileMB(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size()) / (1 << 20)
}

func dirMB(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	total := 0.0
	for _, e := range entries {
		total += fileMB(filepath.Join(dir, e.Name()))
	}
	return total
}

// layerPass times the layers a span cannot see into by calling their
// public functions directly, at the workload's shapes, on the replay
// ring and network the run left behind in eng. Nothing else may be
// driving eng. tick, when not nil, feeds the engine one more tick.
func layerPass(m *metricSet, o options, w spec, input *piTrace, eng *capes.Engine, tick func()) error {
	cfg, err := engineConfig(w, o.seed)
	if err != nil {
		return err
	}
	dir, err := tempDir("layers")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if tick != nil {
		m.set("capes.tick_allocs", allocsPer(o.rounds(64), tick))
	}
	if err := wireLayer(m, o, input, eng); err != nil {
		return err
	}
	if err := replayLayer(m, o, input, eng, cfg, dir); err != nil {
		return err
	}
	if err := numericLayers(m, o, eng, cfg, dir); err != nil {
		return err
	}

	// Engine.SaveSession / RestoreSession: the whole checkpoint, into a
	// fresh engine of the same configuration.
	ckpt := filepath.Join(dir, "session")
	var saveErr error
	m.setTiming("capes.save_session_ms", timeOp(o.rounds(5), 1, func() {
		if err := eng.SaveSession(ckpt); err != nil {
			saveErr = err
		}
	}), 1e6)
	if saveErr != nil {
		return fmt.Errorf("layer pass: SaveSession: %w", saveErr)
	}
	m.set("capes.checkpoint_mb", dirMB(ckpt))
	fresh, err := capes.NewEngine(cfg, noFrames, noopController)
	if err != nil {
		return err
	}
	defer fresh.Stop()
	var restoreErr error
	m.setTiming("capes.restore_session_ms", timeOp(o.rounds(5), 1, func() {
		if err := fresh.RestoreSession(ckpt); err != nil {
			restoreErr = err
		}
	}), 1e6)
	if restoreErr != nil {
		return fmt.Errorf("layer pass: RestoreSession: %w", restoreErr)
	}
	m.set("proc.peak_rss_mb", peakRSSMB())
	return nil
}

// noFrames and noopController are the adapters of an engine nothing
// ticks (a restore target) or whose actions go nowhere.
func noFrames() (replay.Frame, error) { return nil, fmt.Errorf("perfbench: engine has no collector") }
func noopController([]float64) error  { return nil }

// wireLayer times the codec on the messages the workload sends: the
// differential Indicators of every node over the first trace ticks, one
// Action, and one GradFrame carrying the network's gradient arena.
func wireLayer(m *metricSet, o options, input *piTrace, eng *capes.Engine) error {
	const ticks = 16
	var msgs []*wire.Indicators
	var frames [][]byte
	encoders := make([]*wire.DiffEncoder, input.nodes)
	for n := range encoders {
		encoders[n] = wire.NewDiffEncoder(n, pisPerNode)
	}
	totalBytes := 0
	for t := int64(1); t <= ticks; t++ {
		for n, enc := range encoders {
			msg, err := enc.Encode(t, input.row(t, n))
			if err != nil {
				return err
			}
			msg.Epoch = 1
			buf, err := wire.Encode(&wire.Envelope{Type: wire.MsgIndicators, Indicators: msg})
			if err != nil {
				return err
			}
			msgs, frames = append(msgs, msg), append(frames, buf)
			totalBytes += len(buf)
		}
	}
	m.set("wire.indicators_bytes_per_msg", float64(totalBytes)/float64(len(msgs)))

	i := 0
	next := func() int { i = (i + 1) % len(msgs); return i }
	encode := func() {
		wire.Encode(&wire.Envelope{Type: wire.MsgIndicators, Indicators: msgs[next()]})
	}
	decode := func() { wire.ReadMsg(bytes.NewReader(frames[next()])) }
	m.setTiming("wire.encode_indicators_us", timeOp(o.rounds(30), 20, encode), 1e3)
	m.setTiming("wire.decode_indicators_us", timeOp(o.rounds(30), 20, decode), 1e3)
	m.set("wire.encode_allocs_per_msg", allocsPer(o.rounds(100), encode))
	m.set("wire.decode_allocs_per_msg", allocsPer(o.rounds(100), decode))

	enc := wire.NewDiffEncoder(0, pisPerNode)
	dec := wire.NewDiffDecoder(pisPerNode)
	t := int64(0)
	m.setTiming("wire.diff_encode_us", timeOp(o.rounds(30), 200, func() { t++; enc.Encode(t, input.row(t, 0)) }), 1e3)
	m.setTiming("wire.diff_apply_us", timeOp(o.rounds(30), 200, func() { dec.Apply(msgs[next()]) }), 1e3)

	act := &wire.Envelope{Type: wire.MsgAction, Action: &wire.Action{Tick: 1, ID: 2, Values: eng.CurrentValues()}}
	actBuf, err := wire.Encode(act)
	if err != nil {
		return err
	}
	m.setTiming("wire.encode_action_us", timeOp(o.rounds(30), 20, func() { wire.Encode(act) }), 1e3)
	m.setTiming("wire.decode_action_us", timeOp(o.rounds(30), 20, func() { wire.ReadMsg(bytes.NewReader(actBuf)) }), 1e3)

	grads := nn.ExportFlat(nil, eng.Agent().Online.FlatGrads())
	gf := &wire.Envelope{Type: wire.MsgGradFrame, GradFrame: &wire.GradFrame{
		Rank: 1, Epoch: 1, Step: eng.Agent().Steps() + 1, BatchN: minibatch, Loss: eng.Agent().LastLoss(), Grads: grads,
	}}
	gfBuf, err := wire.Encode(gf)
	if err != nil {
		return err
	}
	m.set("wire.gradframe_mb", float64(len(gfBuf))/(1<<20))
	m.setTiming("wire.encode_gradframe_ms", timeOp(o.rounds(5), 1, func() { wire.Encode(gf) }), 1e6)
	m.setTiming("wire.decode_gradframe_ms", timeOp(o.rounds(5), 1, func() { wire.ReadMsg(bytes.NewReader(gfBuf)) }), 1e6)
	return nil
}

// replayLayer times the ring the run filled: the per-tick write, the
// action path's observation read, minibatch sampling, and the snapshot
// codec.
func replayLayer(m *metricSet, o options, input *piTrace, eng *capes.Engine, cfg capes.Config, dir string) error {
	db := eng.DB()
	_, t := db.Bounds()
	m.setTiming("replay.put_frame_ns", timeOp(o.rounds(30), 500, func() {
		t++
		db.PutFrame(t, input.frame(t))
		db.PutAction(t, int(t%3))
	}), 1)
	obs := make([]capes.EnginePrecision, db.ObservationWidth())
	var obsErr error
	m.setTiming("replay.observation_into_ns", timeOp(o.rounds(30), 500, func() {
		if err := replay.ObservationInto(db, obs, t); err != nil {
			obsErr = err
		}
	}), 1)
	if obsErr != nil {
		return fmt.Errorf("layer pass: ObservationInto: %w", obsErr)
	}
	rng := rand.New(rand.NewSource(o.seed))
	rewardFn := capes.RewardFunc(cfg.Objective, cfg.RewardMode)
	var batch replay.Batch[capes.EnginePrecision]
	var batchErr error
	m.setTiming("replay.construct_minibatch_us", timeOp(o.rounds(30), 10, func() {
		if err := replay.ConstructMinibatchInto(db, rng, minibatch, rewardFn, &batch); err != nil {
			batchErr = err
		}
	}), 1e3)
	if batchErr != nil {
		return fmt.Errorf("layer pass: ConstructMinibatchInto: %w", batchErr)
	}

	path := filepath.Join(dir, "replay.db")
	var ioErr error
	m.setTiming("replay.save_ms", timeOp(o.rounds(5), 1, func() {
		if err := db.SaveFile(path); err != nil {
			ioErr = err
		}
	}), 1e6)
	m.set("replay.snapshot_mb", fileMB(path))
	m.setTiming("replay.load_ms", timeOp(o.rounds(5), 1, func() {
		if _, err := replay.LoadFile(path); err != nil {
			ioErr = err
		}
	}), 1e6)
	if ioErr != nil {
		return fmt.Errorf("layer pass: replay snapshot: %w", ioErr)
	}
	return nil
}

// numericLayers times rl, nn and tensor on the run's own network: the
// train step whole and split, the action forward, the fused optimizer
// sweep, the model checkpoint codec, the gradient-plane helpers, and the
// three matrix products of one hidden layer at the minibatch size.
func numericLayers(m *metricSet, o options, eng *capes.Engine, cfg capes.Config, dir string) error {
	db, agent := eng.DB(), eng.Agent()
	rng := rand.New(rand.NewSource(o.seed))
	rewardFn := capes.RewardFunc(cfg.Objective, cfg.RewardMode)
	var batch replay.Batch[capes.EnginePrecision]
	if err := replay.ConstructMinibatchInto(db, rng, minibatch, rewardFn, &batch); err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	var stepErr error
	var loss float64
	note := func(l float64, err error) {
		loss = l
		if err != nil {
			stepErr = err
		}
	}
	m.setTiming("rl.train_step_us", timeOp(o.rounds(30), 1, func() { note(agent.TrainStep(&batch)) }), 1e3)
	m.setTiming("rl.compute_gradients_us", timeOp(o.rounds(30), 1, func() { note(agent.ComputeGradients(&batch)) }), 1e3)
	m.setTiming("rl.apply_gradients_us", timeOp(o.rounds(30), 1, func() { note(loss, agent.ApplyGradients(loss)) }), 1e3)
	if stepErr != nil {
		return fmt.Errorf("layer pass: train step: %w", stepErr)
	}
	_, last := db.Bounds()
	obs := make([]capes.EnginePrecision, db.ObservationWidth())
	if err := replay.ObservationInto(db, obs, last); err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	m.setTiming("rl.select_action_us", timeOp(o.rounds(30), 20, func() { agent.SelectAction(obs, last) }), 1e3)

	params, grads := agent.Online.FlatParams(), agent.Online.FlatGrads()
	m.setTiming("nn.fused_step_us", timeOp(o.rounds(30), 1, func() {
		agent.Opt.FusedStep(params, grads, 1, agent.Target.FlatParams(), cfg.Hyper.TargetUpdateRate)
	}), 1e3)
	var flat []float32
	m.setTiming("nn.export_flat_us", timeOp(o.rounds(30), 1, func() { flat = nn.ExportFlat(flat, grads) }), 1e3)
	acc := make([]float64, len(grads))
	m.setTiming("nn.accumulate_flat_us", timeOp(o.rounds(30), 1, func() { nn.AccumulateFlat(acc, grads) }), 1e3)

	path := filepath.Join(dir, "model.ckpt")
	var ioErr error
	m.setTiming("nn.checkpoint_save_ms", timeOp(o.rounds(5), 1, func() {
		if err := agent.Online.SaveFile(path); err != nil {
			ioErr = err
		}
	}), 1e6)
	m.setTiming("nn.checkpoint_load_ms", timeOp(o.rounds(5), 1, func() {
		if _, err := nn.LoadFile[capes.EnginePrecision](path); err != nil {
			ioErr = err
		}
	}), 1e6)
	if ioErr != nil {
		return fmt.Errorf("layer pass: model checkpoint: %w", ioErr)
	}

	// One hidden layer, width = observation width, at the minibatch size:
	// forward x·W, input gradient g·Wᵀ, weight gradient xᵀ·g.
	n := db.ObservationWidth()
	x := tensor.New[capes.EnginePrecision](minibatch, n)
	wgt := tensor.New[capes.EnginePrecision](n, n)
	g := tensor.New[capes.EnginePrecision](minibatch, n)
	x.XavierFill(rng, n, n)
	wgt.XavierFill(rng, n, n)
	g.XavierFill(rng, n, n)
	y := tensor.New[capes.EnginePrecision](minibatch, n)
	dw := tensor.New[capes.EnginePrecision](n, n)
	m.setTiming("tensor.mul_fwd_us", timeOp(o.rounds(30), 5, func() { tensor.MulInto(y, x, wgt) }), 1e3)
	m.setTiming("tensor.mul_transb_bwd_us", timeOp(o.rounds(30), 5, func() { tensor.MulTransBInto(y, g, wgt) }), 1e3)
	m.setTiming("tensor.mul_transa_us", timeOp(o.rounds(30), 5, func() { tensor.MulTransAInto(dw, x, g) }), 1e3)
	return nil
}
