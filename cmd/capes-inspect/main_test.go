package main

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"capes/internal/capes"
	"capes/internal/capesd"
	"capes/internal/nn"
	"capes/internal/replay"
	"capes/internal/tensor"
)

func TestInspectorsDoNotPanic(t *testing.T) {
	dir := t.TempDir()

	m := nn.NewCAPESNetwork[capes.EnginePrecision](rand.New(rand.NewSource(1)), 8, 3)
	modelPath := filepath.Join(dir, "model.ckpt")
	if err := m.SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := nn.LoadFile[capes.EnginePrecision](modelPath)
	if err != nil {
		t.Fatal(err)
	}
	inspectModel(modelPath, loaded)

	db, err := replay.New(replay.Config{FrameWidth: 2, StackTicks: 2, MissingTolerance: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(0); tick < 10; tick++ {
		db.PutFrame(tick, replay.Frame{1, 2})
		db.PutAction(tick, 1)
	}
	dbPath := filepath.Join(dir, "replay.db")
	if err := db.SaveFile(dbPath); err != nil {
		t.Fatal(err)
	}
	loadedDB, err := replay.LoadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	inspectReplay(dbPath, loadedDB)

	inspectSession(dir) // dir contains model.ckpt + replay.db, no manifest
}

// TestKernelTierIsReportable: the -tier mode prints tensor.KernelTier,
// which must be one of the three documented names so scripts (the CI
// bench job records it next to baselines) can match on it.
func TestKernelTierIsReportable(t *testing.T) {
	switch tier := tensor.KernelTier(); tier {
	case "scalar", "avx2", "avx512":
	default:
		t.Fatalf("KernelTier() = %q, not a documented tier name", tier)
	}
}

// TestStatsAndWatchAgainstLiveDaemon drives the -stats and -watch modes
// against a real in-process capesd control plane: -stats must print the
// session roster and totals, -watch must render the telemetry chart
// frame (empty-ring form here — no agents are pumping frames) and
// return after its round limit.
func TestStatsAndWatchAgainstLiveDaemon(t *testing.T) {
	m := capesd.NewManager()
	defer m.Shutdown()
	if _, err := m.Create(capesd.SessionConfig{
		Name:         "probe",
		Listen:       "127.0.0.1:0",
		Clients:      2,
		PIsPerClient: 4,
		ObsTicks:     2,
		Seed:         1,
		HistoryEvery: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(capesd.SessionConfig{
		Name:         "second",
		Listen:       "127.0.0.1:0",
		Clients:      1,
		PIsPerClient: 4,
		ObsTicks:     2,
		Seed:         1,
	}); err != nil {
		t.Fatal(err)
	}
	addr, err := m.StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var stats bytes.Buffer
	if err := inspectStats(&stats, addr); err != nil {
		t.Fatal(err)
	}
	// -stats lists every session with its engine line.
	for _, want := range []string{"\nprobe (", "\nsecond (", "  engine:        0 train steps, "} {
		if !strings.Contains(stats.String(), want) {
			t.Fatalf("stats output missing %q:\n%s", want, stats.String())
		}
	}
	if err := inspectStats(io.Discard, "127.0.0.1:1"); err == nil {
		t.Fatal("stats against a dead daemon must error")
	}

	var out bytes.Buffer
	if err := watchSession(&out, addr, "probe", time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	// The watch header carries the session state from SessionStats.
	if !strings.Contains(out.String(), "session probe (running): ") {
		t.Fatalf("watch frame missing header:\n%s", out.String())
	}
	if err := watchSession(&out, addr, "ghost", time.Millisecond, 1); err == nil {
		t.Fatal("watching an unknown session must error")
	}
}

func TestCompactJSON(t *testing.T) {
	if compactJSON(map[string]int{"a": 1}) != `{"a":1}` {
		t.Fatal("compactJSON wrong")
	}
	if compactJSON(func() {}) == "" {
		t.Fatal("unmarshalable value must still render")
	}
}
