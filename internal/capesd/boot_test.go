package capesd

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"capes/internal/capes"
	"capes/internal/replay"
)

// bootFrame is the frame every engine in these tests sees at tick t.
func bootFrame(width int, t int64) replay.Frame {
	f := make(replay.Frame, width)
	for j := range f {
		f[j] = 50 + 40*math.Sin(float64(t)/7+float64(j))
	}
	return f
}

// feedSession drives a session's engine through its own tick path, with
// no sockets: the frame is published where the engine's collector reads
// it, then the tick runs.
func feedSession(s *Session, from, to int64) {
	width := s.engCfg.FrameWidth
	for t := from; t <= to; t++ {
		s.frameMu.Lock()
		s.latest = bootFrame(width, t)
		s.frameMu.Unlock()
		s.tickEngine(t)
	}
}

// appliedAction is one entry of an engine's action stream.
type appliedAction struct {
	tick   int64
	action int
}

// recordActions replaces an engine's action hook with one that appends
// each applied (non-NULL) action to the returned slice.
func recordActions(eng *capes.Engine) *[]appliedAction {
	var got []appliedAction
	eng.SetActionHook(func(tick int64, action int, _ []float64) {
		got = append(got, appliedAction{tick, action})
	})
	return &got
}

// paramChecksum hashes the bits of the engine's online and target
// networks.
func paramChecksum(eng *capes.Engine) string {
	h := sha256.New()
	a := eng.Agent()
	for _, p := range [][]float32{a.Online.FlatParams(), a.Target.FlatParams()} {
		for _, v := range p {
			binary.Write(h, binary.LittleEndian, math.Float32bits(v))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// savedBootCheckpoint trains a session for 120 ticks and checkpoints it
// into dir.
func savedBootCheckpoint(t *testing.T, dir string) SessionConfig {
	t.Helper()
	cfg := supervisedSession("boot", dir)
	src, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Stop()
	if src.restored {
		t.Fatal("a fresh checkpoint dir booted as restored")
	}
	feedSession(src, 1, 120)
	if src.Stats().Engine.TrainSteps == 0 {
		t.Fatal("no training before the checkpoint; test setup is wrong")
	}
	if err := src.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestOverlappedBootMatchesSequentialRestore: a session booted by
// newSession — the checkpoint read while the engine is built — and one
// whose engine the watchdog path rebuilt behave bit for bit like an
// engine built by NewEngine and then given RestoreSession: the same
// parameters after the boot, the same action stream over 250 fed ticks,
// and the same parameters after them.
func TestOverlappedBootMatchesSequentialRestore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg := savedBootCheckpoint(t, dir)

	booted, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer booted.Stop()
	if !booted.restored {
		t.Fatal("session did not restore its checkpoint")
	}
	cfg.Name = "rebooted"
	rebooted, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rebooted.Stop()
	if err := rebooted.restartEngine(); err != nil {
		t.Fatal(err)
	}

	var frame replay.Frame
	ref, err := capes.NewEngine(booted.engCfg,
		func() (replay.Frame, error) { return frame, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	if err := ref.RestoreSession(dir); err != nil {
		t.Fatal(err)
	}

	want := paramChecksum(ref)
	for name, s := range map[string]*Session{"booted": booted, "rebooted": rebooted} {
		if got := paramChecksum(s.Engine()); got != want {
			t.Fatalf("%s: parameters after boot %s, sequential restore %s", name, got, want)
		}
	}
	refActions := recordActions(ref)
	bootActions := recordActions(booted.Engine())
	rebootActions := recordActions(rebooted.Engine())
	const from, to = 121, 370
	steps := ref.Stats().TrainSteps
	for tick := int64(from); tick <= to; tick++ {
		frame = bootFrame(booted.engCfg.FrameWidth, tick)
		ref.Tick(tick)
	}
	feedSession(booted, from, to)
	feedSession(rebooted, from, to)

	if len(*refActions) == 0 || ref.Stats().TrainSteps == steps {
		t.Fatalf("reference applied %d actions and took %d train steps over the fed ticks; test setup is wrong",
			len(*refActions), ref.Stats().TrainSteps-steps)
	}
	want = paramChecksum(ref)
	for name, s := range map[string]*Session{"booted": booted, "rebooted": rebooted} {
		got := *bootActions
		if s == rebooted {
			got = *rebootActions
		}
		if len(got) != len(*refActions) {
			t.Fatalf("%s: %d actions, reference %d", name, len(got), len(*refActions))
		}
		for i := range got {
			if got[i] != (*refActions)[i] {
				t.Fatalf("%s: action %d is %+v, reference %+v", name, i, got[i], (*refActions)[i])
			}
		}
		if got := paramChecksum(s.Engine()); got != want {
			t.Fatalf("%s: parameters after %d ticks %s, reference %s", name, to-from+1, got, want)
		}
	}
}

// settledGoroutines waits until the goroutine count is back to at most
// want, and fails with the count it saw otherwise.
func settledGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBootFailuresLeaveNoGoroutine: a boot that fails — on a corrupt
// checkpoint, or because the engine cannot be built while the
// checkpoint is being read — returns its error and leaves nothing
// running.
func TestBootFailuresLeaveNoGoroutine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg := savedBootCheckpoint(t, dir)
	before := runtime.NumGoroutine()

	bad := &Session{cfg: cfg.withDefaults()} // a zero engCfg: NewEngine refuses it
	if _, _, err := bad.bootEngine(); !errors.Is(err, ErrInvalidSession) {
		t.Fatalf("engine that cannot be built: %v", err)
	}
	settledGoroutines(t, before, "after a build error")

	model := filepath.Join(dir, "model.ckpt")
	b, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(model, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newSession(cfg); err == nil {
		t.Fatal("session booted from a corrupt checkpoint")
	}
	settledGoroutines(t, before, "after a corrupt checkpoint")
}
