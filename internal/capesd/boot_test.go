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

// TestFirstBootMatchesNewEngine: a session with no checkpoint on disk
// boots an engine bit for bit like NewEngine's — the same parameters,
// the same 300-tick action stream, the same parameters after it —
// whether its checkpoint dir is empty or missing: the restore-mode
// build the boot starts with gives way to a full one.
func TestFirstBootMatchesNewEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  func(t *testing.T) string
	}{
		{"empty-dir", func(t *testing.T) string { return t.TempDir() }},
		{"missing-dir", func(t *testing.T) string { return filepath.Join(t.TempDir(), "ckpt") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := newSession(supervisedSession("first", tc.dir(t)))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Stop()
			if s.restored {
				t.Fatal("a session without a checkpoint booted as restored")
			}

			var frame replay.Frame
			ref, err := capes.NewEngine(s.engCfg,
				func() (replay.Frame, error) { return frame, nil },
				func([]float64) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Stop()
			if got, want := paramChecksum(s.Engine()), paramChecksum(ref); got != want {
				t.Fatalf("parameters after boot %s, NewEngine %s", got, want)
			}
			refActions, bootActions := recordActions(ref), recordActions(s.Engine())
			const ticks = 300
			for tick := int64(1); tick <= ticks; tick++ {
				frame = bootFrame(s.engCfg.FrameWidth, tick)
				ref.Tick(tick)
			}
			feedSession(s, 1, ticks)
			if len(*refActions) == 0 || ref.Stats().TrainSteps == 0 {
				t.Fatalf("reference applied %d actions in %d train steps; test setup is wrong",
					len(*refActions), ref.Stats().TrainSteps)
			}
			if len(*bootActions) != len(*refActions) {
				t.Fatalf("%d actions, NewEngine %d", len(*bootActions), len(*refActions))
			}
			for i, a := range *bootActions {
				if a != (*refActions)[i] {
					t.Fatalf("action %d is %+v, NewEngine's %+v", i, a, (*refActions)[i])
				}
			}
			if got, want := paramChecksum(s.Engine()), paramChecksum(ref); got != want {
				t.Fatalf("parameters after %d ticks %s, NewEngine %s", ticks, got, want)
			}
		})
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

// TestBootFailuresLeaveNoGoroutine: a boot that fails — on a corrupt or
// torn checkpoint file, or because the engine cannot be built while the
// checkpoint is being read — returns its error and leaves nothing
// running: not the checkpoint reader, not the goroutine that loads the
// model beside the replay snapshot, not a checksum helper. A damaged
// checkpoint is reported as one, not as a bad config.
func TestBootFailuresLeaveNoGoroutine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	cfg := savedBootCheckpoint(t, dir)
	before := runtime.NumGoroutine()

	for _, ckptDir := range []string{dir, ""} {
		bad := &Session{cfg: cfg.withDefaults()} // a zero engCfg: NewEngine refuses it
		bad.cfg.CheckpointDir = ckptDir
		if _, _, err := bad.bootEngine(); !errors.Is(err, ErrInvalidSession) {
			t.Fatalf("engine that cannot be built (checkpoint dir %q): %v", ckptDir, err)
		}
	}
	settledGoroutines(t, before, "after a build error")

	for _, damage := range []struct {
		name, file string
		spoil      func([]byte) []byte
	}{
		{"bit flip in the model", "model.ckpt", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
		{"torn model", "model.ckpt", func(b []byte) []byte { return b[:len(b)/2] }},
		{"torn replay snapshot, first half", "replay.db", func(b []byte) []byte { return b[:len(b)/4] }},
		{"torn replay snapshot, second half", "replay.db", func(b []byte) []byte { return b[:3*len(b)/4] }},
	} {
		path := filepath.Join(dir, damage.file)
		intact, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, damage.spoil(append([]byte(nil), intact...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := newSession(cfg); !errors.Is(err, capes.ErrBadCheckpoint) || errors.Is(err, ErrInvalidSession) {
			t.Fatalf("%s: boot error %v, want a bad checkpoint, not an invalid config", damage.name, err)
		}
		settledGoroutines(t, before, "after a "+damage.name)
		if err := os.WriteFile(path, intact, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := newSession(cfg)
	if err != nil {
		t.Fatalf("the repaired checkpoint: %v", err)
	}
	defer s.Stop()
	if !s.restored {
		t.Fatal("the repaired checkpoint did not restore")
	}
}
