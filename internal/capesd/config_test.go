package capesd

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"capes/internal/capes"
	"capes/internal/storesim"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "capesd.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadConfigParsesMultiSession(t *testing.T) {
	path := writeConfig(t, `{
		"http": "127.0.0.1:8080",
		"sessions": [
			{"name": "alpha", "listen": "127.0.0.1:7070", "clients": 5,
			 "checkpoint_dir": "/tmp/a", "obs_ticks": 3},
			{"name": "beta", "clients": 2, "exploit": true,
			 "reward_mode": "absolute",
			 "tunables": [{"name": "k", "min": 0, "max": 10, "step": 1, "default": 5}],
			 "objective": {"type": "sum", "indices": [0, 1]}}
		]
	}`)
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HTTP != "127.0.0.1:8080" || len(cfg.Sessions) != 2 {
		t.Fatalf("cfg = %+v", cfg)
	}

	alpha := cfg.Sessions[0].withDefaults()
	if alpha.PIsPerClient != storesim.NumClientPIs || alpha.Seed != 1 || alpha.ObsTicks != 3 {
		t.Fatalf("alpha defaults = %+v", alpha)
	}
	ec, err := alpha.engineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if ec.FrameWidth != 5*storesim.NumClientPIs || !ec.Training || !ec.Tuning {
		t.Fatalf("alpha engine config = %+v", ec)
	}
	if ec.Space.NumActions() != 5 { // 2 Lustre tunables -> 2k+1
		t.Fatalf("alpha actions = %d", ec.Space.NumActions())
	}

	beta := cfg.Sessions[1].withDefaults()
	if beta.Listen != "127.0.0.1:0" {
		t.Fatalf("beta listen default = %q", beta.Listen)
	}
	bc, err := beta.engineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if bc.Training { // exploit = greedy, no training
		t.Fatal("exploit session must not train")
	}
	if bc.Space.NumActions() != 3 { // one custom tunable
		t.Fatalf("beta actions = %d", bc.Space.NumActions())
	}
	// Custom sum objective reads the configured indices.
	if got := bc.Objective([]float64{2, 3, 100}); got != 5 {
		t.Fatalf("sum objective = %v", got)
	}
}

func TestLoadConfigRejections(t *testing.T) {
	cases := map[string]string{
		"no sessions":      `{"sessions": []}`,
		"unknown field":    `{"bogus": 1, "sessions": [{"name": "a", "clients": 1}]}`,
		"duplicate names":  `{"sessions": [{"name": "a", "clients": 1}, {"name": "a", "clients": 1}]}`,
		"missing name":     `{"sessions": [{"clients": 1}]}`,
		"slash in name":    `{"sessions": [{"name": "a/b", "clients": 1}]}`,
		"zero clients":     `{"sessions": [{"name": "a"}]}`,
		"bad reward mode":  `{"sessions": [{"name": "a", "clients": 1, "reward_mode": "squared"}]}`,
		"sum sans indices": `{"sessions": [{"name": "a", "clients": 1, "objective": {"type": "sum"}}]}`,
		"bad objective":    `{"sessions": [{"name": "a", "clients": 1, "objective": {"type": "latency"}}]}`,
		"shared checkpoint_dir": `{"sessions": [
			{"name": "a", "clients": 1, "checkpoint_dir": "/tmp/x"},
			{"name": "b", "clients": 1, "checkpoint_dir": "/tmp/x/"}]}`,
		"bad cluster role":           `{"sessions": [{"name": "a", "clients": 1, "cluster": {"role": "observer"}}]}`,
		"leader sans listen":         `{"sessions": [{"name": "a", "clients": 1, "cluster": {"role": "leader"}}]}`,
		"follower sans leader":       `{"sessions": [{"name": "a", "clients": 1, "cluster": {"role": "follower", "rank": 1}}]}`,
		"follower sans rank":         `{"sessions": [{"name": "a", "clients": 1, "cluster": {"role": "follower", "leader": "x:1"}}]}`,
		"removed pipeline knob":      `{"sessions": [{"name": "a", "clients": 1, "pipeline": true}]}`,
		"negative cluster knob":      `{"sessions": [{"name": "a", "clients": 1, "cluster": {"role": "leader", "listen": ":0", "collect_timeout_ms": -5}}]}`,
		"negative train_start_ticks": `{"sessions": [{"name": "a", "clients": 1, "train_start_ticks": -1}]}`,
		"negative train_every":       `{"sessions": [{"name": "a", "clients": 1, "train_every": -4}]}`,
		"negative minibatch_size":    `{"sessions": [{"name": "a", "clients": 1, "minibatch_size": -32}]}`,
		"negative replay_capacity":   `{"sessions": [{"name": "a", "clients": 1, "replay_capacity": -1}]}`,
		"negative liveness":          `{"sessions": [{"name": "a", "clients": 1, "liveness_timeout_ms": -1}]}`,
		"removed drop_incomplete":    `{"sessions": [{"name": "a", "clients": 1, "drop_incomplete": true}]}`,
		"removed partial_frame_ms":   `{"sessions": [{"name": "a", "clients": 1, "partial_frame_ms": 100}]}`,
		"removed max_pending_ticks":  `{"sessions": [{"name": "a", "clients": 1, "max_pending_ticks": 8}]}`,
		"removed exploration_period": `{"sessions": [{"name": "a", "clients": 1, "exploration_period": 100}]}`,
	}
	for what, body := range cases {
		if _, err := LoadConfig(writeConfig(t, body)); err == nil {
			t.Errorf("%s: config accepted", what)
		}
	}
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSupervisionKnobValidation(t *testing.T) {
	cases := map[string]string{
		"negative tick_deadline_ms":    `{"sessions": [{"name": "a", "clients": 1, "tick_deadline_ms": -1}]}`,
		"negative max_rollbacks":       `{"sessions": [{"name": "a", "clients": 1, "max_rollbacks": -2}]}`,
		"negative rollback_backoff_ms": `{"sessions": [{"name": "a", "clients": 1, "rollback_backoff_ms": -100}]}`,
		"negative max_frames_per_sec":  `{"sessions": [{"name": "a", "clients": 1, "max_frames_per_sec": -5}]}`,
		"supervise_every_ms below -1":  `{"sessions": [{"name": "a", "clients": 1, "supervise_every_ms": -2}]}`,
	}
	for what, body := range cases {
		if _, err := LoadConfig(writeConfig(t, body)); err == nil {
			t.Errorf("%s: config accepted", what)
		}
	}

	// -1 is the documented "no background supervision loop" sentinel
	// (tests drive superviseOnce by hand), and 0 on the rest means "use
	// defaults" — both must pass validation.
	ok := `{"sessions": [{"name": "a", "clients": 1, "supervise_every_ms": -1}]}`
	if _, err := LoadConfig(writeConfig(t, ok)); err != nil {
		t.Fatalf("supervise_every_ms -1 rejected: %v", err)
	}
}

func TestSupervisionDefaults(t *testing.T) {
	sc := SessionConfig{Name: "d", Clients: 1}.withDefaults()
	if sc.MaxRollbacks != 3 {
		t.Fatalf("max_rollbacks default = %d, want 3", sc.MaxRollbacks)
	}
	if sc.RollbackBackoffMs != 500 {
		t.Fatalf("rollback_backoff_ms default = %d, want 500", sc.RollbackBackoffMs)
	}
	if sc.SuperviseEveryMs != 100 {
		t.Fatalf("supervise_every_ms default = %d, want 100", sc.SuperviseEveryMs)
	}
	// Watchdog and shedding stay opt-in: a zero deadline/quota means
	// disabled, not "some default we invented".
	if sc.TickDeadlineMs != 0 || sc.MaxFramesPerSec != 0 {
		t.Fatalf("tick_deadline_ms/max_frames_per_sec must default to disabled, got %d/%d",
			sc.TickDeadlineMs, sc.MaxFramesPerSec)
	}
	// Explicit settings survive the defaulting pass.
	explicit := SessionConfig{Name: "e", Clients: 1, MaxRollbacks: 7, RollbackBackoffMs: 40, SuperviseEveryMs: -1}.withDefaults()
	if explicit.MaxRollbacks != 7 || explicit.RollbackBackoffMs != 40 || explicit.SuperviseEveryMs != -1 {
		t.Fatalf("explicit supervision knobs overwritten: %+v", explicit)
	}
}

// TestSessionOverridesReachEngine: every hyperparameter, layout and
// policy override a session sets arrives in the engine config, and a
// session that sets none runs Table 1's hyperparameters.
func TestSessionOverridesReachEngine(t *testing.T) {
	cfg, err := LoadConfig(writeConfig(t, `{"sessions": [{"name": "o", "clients": 2,
		"pis_per_client": 4, "seed": 9, "monitor_only": true,
		"train_start_ticks": 100, "train_every": 4, "minibatch_size": 16, "replay_capacity": 5000,
		"history_every": 3, "history_cap": 50,
		"divergence": {"loss_explode_factor": 50, "min_steps": 10, "min_points": 4,
		               "reward_collapse_factor": 2, "probe_every_steps": 128}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	sc := cfg.Sessions[0].withDefaults()
	ec, err := sc.engineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if h := ec.Hyper; h.TrainStartTicks != 100 || h.TrainEvery != 4 || h.MinibatchSize != 16 || h.ReplayCapacity != 5000 {
		t.Fatalf("hyperparameter overrides lost: %+v", h)
	}
	if ec.FrameWidth != 2*4 || ec.Seed != 9 || ec.Tuning || !ec.Training {
		t.Fatalf("layout/lifecycle overrides lost: width %d, seed %d, tuning %v, training %v",
			ec.FrameWidth, ec.Seed, ec.Tuning, ec.Training)
	}
	if ec.HistoryEvery != 3 || ec.HistoryCap != 50 {
		t.Fatalf("history ring = every %d, cap %d", ec.HistoryEvery, ec.HistoryCap)
	}
	want := capes.DivergencePolicy{LossExplodeFactor: 50, MinSteps: 10, MinPoints: 4, RewardCollapseFactor: 2, ProbeEverySteps: 128}
	if ec.Divergence == nil || *ec.Divergence != want {
		t.Fatalf("divergence policy = %+v, want %+v", ec.Divergence, want)
	}

	d := SessionConfig{Name: "d", Clients: 1}.withDefaults()
	def, err := d.engineConfig()
	if err != nil {
		t.Fatal(err)
	}
	table1 := capes.DefaultHyperparameters()
	table1.TicksPerObservation = 5 // obs_ticks' default
	if def.Hyper != table1 || def.Divergence != nil {
		t.Fatalf("default session hyperparameters = %+v, want %+v", def.Hyper, table1)
	}
}

func TestClusterConfigMapsToEngine(t *testing.T) {
	leader := SessionConfig{Name: "l", Clients: 1, Cluster: &ClusterConfig{Role: "leader", Listen: "127.0.0.1:7710"}}.withDefaults()
	lc, err := leader.engineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cc := lc.Cluster; cc == nil || cc.Role != capes.ClusterLeader || cc.Listen != "127.0.0.1:7710" {
		t.Fatalf("leader block mapped wrong: %+v", cc)
	}

	sc := SessionConfig{Name: "c", Clients: 1, Cluster: &ClusterConfig{
		Role: "follower", Leader: "127.0.0.1:7710", Rank: 2,
		CollectTimeoutMs: 250, SyncTimeoutMs: 1500,
	}}
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.engineConfig()
	if err != nil {
		t.Fatal(err)
	}
	cc := cfg.Cluster
	if cc == nil || cc.Role != capes.ClusterFollower || cc.LeaderAddr != "127.0.0.1:7710" || cc.Rank != 2 {
		t.Fatalf("cluster block mapped wrong: %+v", cc)
	}
	if cc.CollectTimeout != 250*time.Millisecond || cc.SyncTimeout != 1500*time.Millisecond {
		t.Fatalf("cluster timeouts mapped wrong: %+v", cc)
	}
}

func TestThroughputOffsetsValidatedAgainstFrameLayout(t *testing.T) {
	// Out-of-range offsets must be rejected at build time — at runtime
	// they would panic inside Tick and take down every session.
	sc := SessionConfig{Name: "o", Clients: 1, Objective: &ObjectiveConfig{
		Type: "throughput", ReadOffset: 12, WriteOffset: 1,
	}}
	sc = sc.withDefaults() // 10 PIs per client
	if _, err := sc.engineConfig(); err == nil {
		t.Fatal("read_offset 12 of 10 PIs accepted")
	}
	neg := SessionConfig{Name: "n", Clients: 1, Objective: &ObjectiveConfig{
		Type: "throughput", ReadOffset: -1, WriteOffset: 1,
	}}
	neg = neg.withDefaults()
	if _, err := neg.engineConfig(); err == nil {
		t.Fatal("negative read_offset accepted")
	}
}

func TestThroughputOffsetZeroIsExpressible(t *testing.T) {
	// Setting either offset makes the pair explicit, so a layout with a
	// throughput PI at index 0 works (instead of silently falling back
	// to the storesim defaults 2/3).
	sc := SessionConfig{Name: "z", Clients: 1, Objective: &ObjectiveConfig{
		Type: "throughput", ReadOffset: 0, WriteOffset: 1,
	}}
	sc = sc.withDefaults()
	ec, err := sc.engineConfig()
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]float64, sc.PIsPerClient)
	frame[0], frame[1], frame[2], frame[3] = 5, 7, 100, 100
	if got := ec.Objective(frame); got != 12 {
		t.Fatalf("objective = %v, want 12 (indices 0+1)", got)
	}
}

func TestEngineConfigRejectsBadTunable(t *testing.T) {
	sc := SessionConfig{Name: "t", Clients: 1, Tunables: []TunableConfig{
		{Name: "bad", Min: 5, Max: 1, Step: 1, Default: 3},
	}}
	sc = sc.withDefaults()
	if _, err := sc.engineConfig(); err == nil {
		t.Fatal("inverted tunable range accepted")
	}
}
