package rl

import (
	"math/rand"
	"testing"

	"capes/internal/replay"
)

// bitEqual compares two float64 arenas exactly (no tolerance: the
// cluster determinism contract is bit-identity, not closeness).
func bitEqual(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: arena lengths differ: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: diverges at element %d: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// syncPair builds a leader that has trained warm steps on b and a
// follower from another seed (nothing in common but the shape).
func syncPair(t *testing.T, cfg Config, seed int64, warm int) (leader, follower *Agent[float64], b *replay.Batch[float64]) {
	t.Helper()
	var err error
	if leader, err = NewAgent[float64](cfg, nil, 3, 2, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	if follower, err = NewAgent[float64](cfg, nil, 3, 2, rand.New(rand.NewSource(seed+100))); err != nil {
		t.Fatal(err)
	}
	b = syntheticBatch(rand.New(rand.NewSource(seed+1)), 16, 3, 2)
	for i := 0; i < warm; i++ {
		if _, err := leader.TrainStep(b); err != nil {
			t.Fatal(err)
		}
	}
	return leader, follower, b
}

// fullSync hands the follower the leader's whole state, the way a
// cluster follower's welcome does.
func fullSync(leader, follower *Agent[float64]) error {
	m, v := leader.Opt.FlatMoments()
	return follower.ApplyParamBroadcast(leader.Steps(), leader.Online.FlatParams(), leader.Target.FlatParams(),
		m, v, int64(leader.Opt.StepCount()), leader.SmoothedLoss())
}

// coStep is one cluster round as the follower sees it: the leader trains
// on b, the follower gets the same gradient into its own arena and runs
// the same ApplyGradients.
func coStep(t *testing.T, leader, follower *Agent[float64], b *replay.Batch[float64]) {
	t.Helper()
	loss, err := leader.ComputeGradients(b)
	if err != nil {
		t.Fatal(err)
	}
	copy(follower.Online.FlatGrads(), leader.Online.FlatGrads())
	if err := leader.ApplyGradients(loss); err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyGradients(loss); err != nil {
		t.Fatal(err)
	}
}

func assertSameState(t *testing.T, leader, follower *Agent[float64]) {
	t.Helper()
	bitEqual(t, "online", leader.Online.FlatParams(), follower.Online.FlatParams())
	bitEqual(t, "target", leader.Target.FlatParams(), follower.Target.FlatParams())
	lm, lv := leader.Opt.FlatMoments()
	fm, fv := follower.Opt.FlatMoments()
	bitEqual(t, "first moments", lm, fm)
	bitEqual(t, "second moments", lv, fv)
	if follower.Steps() != leader.Steps() || follower.Opt.StepCount() != leader.Opt.StepCount() {
		t.Fatalf("follower at step %d (optimizer %d), leader at %d (%d)",
			follower.Steps(), follower.Opt.StepCount(), leader.Steps(), leader.Opt.StepCount())
	}
	if follower.SmoothedLoss() != leader.SmoothedLoss() {
		t.Fatalf("loss EWMA diverged: %v vs %v", follower.SmoothedLoss(), leader.SmoothedLoss())
	}
}

// TestApplyParamBroadcastReplicatesSoftTarget: a follower that absorbs a
// full sync mid-run — non-zero moments, a target that has drifted from
// the online network — and from then on applies the leader's gradients
// through its own ApplyGradients holds the leader's θ, soft-updated θ⁻,
// moments and counters bit for bit, step after step.
func TestApplyParamBroadcastReplicatesSoftTarget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LearningRate = 1e-2
	leader, follower, b := syncPair(t, cfg, 9, 7)
	if err := fullSync(leader, follower); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, leader, follower)
	for i := 0; i < 25; i++ {
		coStep(t, leader, follower, b)
		assertSameState(t, leader, follower)
	}
}

// TestApplyParamBroadcastReplicatesHardTarget: synced between two hard
// updates, the follower's own (steps+1)%HardUpdateEvery schedule fires on
// exactly the leader's steps — the global step travels with the sync.
func TestApplyParamBroadcastReplicatesHardTarget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LearningRate = 1e-2
	cfg.HardUpdateEvery = 5
	leader, follower, b := syncPair(t, cfg, 11, 3)
	if err := fullSync(leader, follower); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 17; i++ {
		coStep(t, leader, follower, b)
		assertSameState(t, leader, follower)
	}
}

// TestApplyParamBroadcastGapNeedsSync: a follower that missed steps
// cannot catch up by applying later gradients — and a sync that left the
// optimizer state out would be just as wrong, silently: same θ and θ⁻
// at the sync, a different θ one step later. Only the full sync repairs
// the gap.
func TestApplyParamBroadcastGapNeedsSync(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LearningRate = 1e-2
	leader, follower, b := syncPair(t, cfg, 13, 3)

	// θ and θ⁻ alone: equal now, diverged after one common step.
	if err := follower.ApplyParamBroadcast(leader.Steps(), leader.Online.FlatParams(), leader.Target.FlatParams(), nil, nil, 0, leader.SmoothedLoss()); err != nil {
		t.Fatal(err)
	}
	bitEqual(t, "online", leader.Online.FlatParams(), follower.Online.FlatParams())
	coStep(t, leader, follower, b)
	same := true
	for i, p := range leader.Online.FlatParams() {
		same = same && p == follower.Online.FlatParams()[i]
	}
	if same {
		t.Fatal("a sync without the optimizer state still tracked the leader: the test no longer shows why it travels")
	}

	if err := fullSync(leader, follower); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, leader, follower)
	coStep(t, leader, follower, b)
	assertSameState(t, leader, follower)
}

// TestApplyParamBroadcastRejectsBadSync: a sync whose arenas do not fit
// the network, or whose optimizer state contradicts itself, is refused
// before anything is written.
func TestApplyParamBroadcastRejectsBadSync(t *testing.T) {
	cfg := DefaultConfig()
	leader, follower, b := syncPair(t, cfg, 15, 2)
	if _, err := follower.TrainStep(b); err != nil { // the follower has state of its own to lose
		t.Fatal(err)
	}
	before := append([]float64(nil), follower.Online.FlatParams()...)
	beforeM, _ := follower.Opt.FlatMoments()
	beforeM = append([]float64(nil), beforeM...)
	steps := follower.Steps()

	p, tg := leader.Online.FlatParams(), leader.Target.FlatParams()
	m, v := leader.Opt.FlatMoments()
	for name, call := range map[string]func() error{
		"negative step":      func() error { return follower.ApplyParamBroadcast(-1, p, tg, m, v, 1, 0) },
		"negative opt step":  func() error { return follower.ApplyParamBroadcast(5, p, tg, m, v, -1, 0) },
		"short params":       func() error { return follower.ApplyParamBroadcast(5, p[1:], tg, m, v, 1, 0) },
		"short target":       func() error { return follower.ApplyParamBroadcast(5, p, tg[1:], m, v, 1, 0) },
		"no target":          func() error { return follower.ApplyParamBroadcast(5, p, nil, m, v, 1, 0) },
		"short moments":      func() error { return follower.ApplyParamBroadcast(5, p, tg, m[1:], v[1:], 1, 0) },
		"one moment":         func() error { return follower.ApplyParamBroadcast(5, p, tg, m, nil, 1, 0) },
		"moments at step 0":  func() error { return follower.ApplyParamBroadcast(5, p, tg, m, v, 0, 0) },
		"step 3, no moments": func() error { return follower.ApplyParamBroadcast(5, p, tg, nil, nil, 3, 0) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: sync accepted", name)
		}
	}
	bitEqual(t, "online after refused syncs", before, follower.Online.FlatParams())
	afterM, _ := follower.Opt.FlatMoments()
	bitEqual(t, "moments after refused syncs", beforeM, afterM)
	if follower.Steps() != steps {
		t.Fatalf("refused syncs moved the step counter to %d", follower.Steps())
	}

	// A sync from a leader that has not stepped resets a follower that has.
	fresh, _, _ := syncPair(t, cfg, 17, 0)
	if err := fullSync(fresh, follower); err != nil {
		t.Fatal(err)
	}
	if fm, _ := follower.Opt.FlatMoments(); fm != nil || follower.Opt.StepCount() != 0 || follower.Steps() != 0 {
		t.Fatalf("sync from a fresh leader left optimizer step %d, %d moments, step %d", follower.Opt.StepCount(), len(fm), follower.Steps())
	}
	coStep(t, fresh, follower, b)
	assertSameState(t, fresh, follower)
}

// TestRestoreSteps: the counter restores exactly and rejects nonsense.
func TestRestoreSteps(t *testing.T) {
	cfg := DefaultConfig()
	agent, err := NewAgent[float64](cfg, nil, 3, 2, rand.New(rand.NewSource(16)))
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.RestoreSteps(-1); err == nil {
		t.Fatal("negative step counter must be rejected")
	}
	if err := agent.RestoreSteps(42); err != nil {
		t.Fatal(err)
	}
	if agent.Steps() != 42 {
		t.Fatalf("restored %d steps, want 42", agent.Steps())
	}
}
