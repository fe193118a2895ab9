package main

import "fmt"

// decl declares one metric: BENCHMARK.json carries the same name, unit
// and direction, and the smoke test asserts the two lists agree.
type decl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, so the names are generic; README.md says what the
// "op" is on each workload (tick, checkpoint cycle, cluster step).
//
// The timing bounds are 20–25 %, not the 10–15 % first planned: on the
// shared 2-vCPU hosts this runs on, ten back-to-back runs of the same
// code spread (inter-quartile distance over median) by 3 % in a quiet
// quarter of an hour and by 7–10 % in a busy one, and a bound has to
// stay well clear of that spread to tell a regression from the host.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// perLayer is one layer's share of the work, named <module>.<what>.
// A workload that does not exercise a metric reports it as 0.
var perLayer = []decl{
	// wire: the gob+flate codec, per message, on the workload's own messages.
	{"wire.encode_indicators_us", "us", "lower", 0},
	{"wire.decode_indicators_us", "us", "lower", 0},
	{"wire.diff_encode_us", "us", "lower", 0},
	{"wire.diff_apply_us", "us", "lower", 0},
	{"wire.encode_action_us", "us", "lower", 0},
	{"wire.decode_action_us", "us", "lower", 0},
	{"wire.indicators_bytes_per_msg", "B", "lower", 0},
	{"wire.encode_allocs_per_msg", "count", "lower", 0},
	{"wire.decode_allocs_per_msg", "count", "lower", 0},
	{"wire.encode_gradframe_ms", "ms", "lower", 0},
	{"wire.decode_gradframe_ms", "ms", "lower", 0},
	{"wire.gradframe_mb", "MB", "lower", 0},
	// agent: node agents and the daemon's frame assembly, from spans.
	{"agent.send_us", "us", "lower", 0},
	{"agent.assemble_us", "us", "lower", 0},
	{"agent.broadcast_us", "us", "lower", 0},
	{"agent.bytes_per_tick", "B", "lower", 0},
	{"agent.msgs_per_tick", "count", "lower", 0},
	{"agent.partial_frames", "count", "lower", 0},
	{"agent.dropped_ticks", "count", "lower", 0},
	{"agent.dropped_actions", "count", "lower", 0},
	{"agent.tick_to_action_p99_ms", "ms", "lower", 0},
	// capes: the engine, from spans around its public calls.
	{"capes.tick_train_us", "us", "lower", 0},
	{"capes.tick_notrain_us", "us", "lower", 0},
	{"capes.tick_allocs", "count", "lower", 0},
	{"capes.save_session_ms", "ms", "lower", 0},
	{"capes.restore_session_ms", "ms", "lower", 0},
	{"capes.checkpoint_mb", "MB", "lower", 0},
	{"capes.leader_tick_ms", "ms", "lower", 0},
	{"capes.follower_tick_ms", "ms", "lower", 0},
	{"capes.solo_tick_ms", "ms", "lower", 0},
	{"capes.solo_samples_per_s", "1/s", "higher", 0},
	{"capes.cluster_samples_per_s", "1/s", "higher", 0},
	{"capes.cluster_scaling_efficiency", "ratio", "higher", 0},
	{"capes.cluster_collect_timeouts", "count", "lower", 0},
	{"capes.cluster_stale_frames", "count", "lower", 0},
	{"capes.cluster_evictions", "count", "lower", 0},
	// replay: the ring, called directly at the workload's shapes.
	{"replay.put_frame_ns", "ns", "lower", 0},
	{"replay.observation_into_ns", "ns", "lower", 0},
	{"replay.construct_minibatch_us", "us", "lower", 0},
	{"replay.save_ms", "ms", "lower", 0},
	{"replay.load_ms", "ms", "lower", 0},
	{"replay.snapshot_mb", "MB", "lower", 0},
	// rl: the DQN agent on the run's own replay ring and network.
	{"rl.train_step_us", "us", "lower", 0},
	{"rl.select_action_us", "us", "lower", 0},
	{"rl.compute_gradients_us", "us", "lower", 0},
	{"rl.apply_gradients_us", "us", "lower", 0},
	// nn: optimizer sweep, checkpoint codec, gradient-plane helpers.
	{"nn.fused_step_us", "us", "lower", 0},
	{"nn.checkpoint_save_ms", "ms", "lower", 0},
	{"nn.checkpoint_load_ms", "ms", "lower", 0},
	{"nn.export_flat_us", "us", "lower", 0},
	{"nn.accumulate_flat_us", "us", "lower", 0},
	// tensor: the three products of one hidden layer at minibatch 32.
	{"tensor.mul_fwd_us", "us", "lower", 0},
	{"tensor.mul_transb_bwd_us", "us", "lower", 0},
	{"tensor.mul_transa_us", "us", "lower", 0},
	// capesd: what Session and Manager add around the engine.
	{"capesd.session_create_ms", "ms", "lower", 0},
	{"capesd.stats_us", "us", "lower", 0},
	{"capesd.shed_frames", "count", "lower", 0},
	{"capesd.supervisor_trips", "count", "lower", 0},
	{"capesd.tick_overhead_us", "us", "lower", 0},
	{"capesd.checkpoint_save_ms", "ms", "lower", 0},
	{"capesd.checkpoint_restore_ms", "ms", "lower", 0},
	// proc / gen / trace: the whole process, the generator, the tracer.
	{"proc.allocs_per_tick", "count", "lower", 0},
	{"proc.alloc_kb_per_tick", "KB", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"gen.poll_share", "ratio", "lower", 0},
	{"gen.send_share", "ratio", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.accounted_pct", "%", "higher", 0},
}

// metricValue is one reported number, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's numbers against one declared list, with
// the sample count behind each timing.
type metricSet struct {
	decls   []decl
	values  map[string]float64
	samples map[string]int
}

func newMetricSet(decls []decl) *metricSet {
	return &metricSet{decls: decls, values: map[string]float64{}, samples: map[string]int{}}
}

// set records a value; an undeclared name is a bug in the benchmark.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.decls {
		if d.Name == name {
			m.values[name] = v
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// setTiming records the median of a sample set and how many samples it
// came from; scale converts nanoseconds to the metric's unit.
func (m *metricSet) setTiming(name string, ns []float64, scale float64) {
	if len(ns) == 0 {
		return
	}
	m.set(name, median(ns)/scale)
	m.samples[name] = len(ns)
}

// export returns every declared metric. A per-layer metric the workload
// never set reads 0; an end-to-end one must have been set.
func (m *metricSet) export(requireAll bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(m.decls))
	for _, d := range m.decls {
		v, ok := m.values[d.Name]
		if !ok && requireAll {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
