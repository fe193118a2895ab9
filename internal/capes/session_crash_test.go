package capes

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"capes/internal/replay"
)

// checkpointEngine builds a deterministic engine on the tickFrame
// workload for checkpoint tests, with optional config tweaks.
func checkpointEngine(t *testing.T, mod func(*Config)) (*Engine, *int64) {
	t.Helper()
	cfg, _ := smallConfig(t, true, true)
	if mod != nil {
		mod(&cfg)
	}
	tick := new(int64)
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return tickFrame(*tick), nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return eng, tick
}

func runTicks(eng *Engine, tick *int64, from, to int64) {
	for *tick = from; *tick <= to; *tick++ {
		eng.Tick(*tick)
	}
}

// copyDir clones a checkpoint directory so each corruption case starts
// from a pristine copy.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		buf, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointCorruptFilesFailCleanly truncates and garbage-fills each
// checkpoint file in turn, and flips one bit inside the float payload of
// the model and of the replay snapshot (damage that leaves the file
// well-formed: only the checksum can tell). Restore must report a hard
// error (never ErrNoSession — the checkpoint exists, it is damaged) and
// leave the engine's agent, ring, history and current values exactly as
// they were, still able to train.
func TestCheckpointCorruptFilesFailCleanly(t *testing.T) {
	src, tick := checkpointEngine(t, nil)
	defer src.Stop()
	runTicks(src, tick, 1, 200)
	golden := filepath.Join(t.TempDir(), "golden")
	if err := src.SaveSession(golden); err != nil {
		t.Fatal(err)
	}
	// Where the float payloads sit: the last bytes before each file's
	// 4-byte checksum trailer.
	payload := map[string]int{
		modelFile:  4 * src.Agent().Online.NumParams(),
		replayFile: 4 * src.DB().Config().FrameWidth * src.DB().Len(),
	}
	rng := rand.New(rand.NewSource(20260930))

	corruptions := []struct {
		name string
		mut  func(path string, buf []byte) []byte
	}{
		{"truncate", func(_ string, buf []byte) []byte { return buf[:len(buf)/3] }},
		{"garbage", func(string, []byte) []byte { return []byte("\x00\xffnot a checkpoint\x13\x37") }},
		{"bitflip", func(path string, buf []byte) []byte {
			n := payload[filepath.Base(path)]
			buf[len(buf)-4-n+rng.Intn(n)] ^= 1 << rng.Intn(8)
			return buf
		}},
	}
	for _, file := range []string{modelFile, replayFile, manifestFile, historyFile} {
		for _, c := range corruptions {
			if c.name == "bitflip" && payload[file] == 0 {
				continue // the JSON files have no float payload
			}
			t.Run(file+"/"+c.name, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "ckpt")
				copyDir(t, golden, dir)
				path := filepath.Join(dir, file)
				buf, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, c.mut(path, buf), 0o644); err != nil {
					t.Fatal(err)
				}
				eng, etick := checkpointEngine(t, nil)
				defer eng.Stop()
				runTicks(eng, etick, 1, 60)
				agent, db, before := eng.Agent(), eng.DB(), eng.Stats()
				params := append([]EnginePrecision(nil), agent.Online.FlatParams()...)
				history, current := len(eng.History()), eng.CurrentValues()

				err = eng.RestoreSession(dir)
				if err == nil {
					t.Fatal("restore of a corrupt checkpoint must fail")
				}
				if errors.Is(err, ErrNoSession) {
					t.Fatalf("corrupt checkpoint misreported as absent: %v", err)
				}
				// No half-applied restore.
				after := eng.Stats()
				if eng.Agent() != agent || eng.DB() != db ||
					after.TrainSteps != before.TrainSteps || after.ReplayRecords != before.ReplayRecords ||
					len(eng.History()) != history || !slices.Equal(eng.CurrentValues(), current) ||
					!slices.Equal(agent.Online.FlatParams(), params) {
					t.Fatalf("failed restore mutated the engine: %+v vs %+v", after, before)
				}
				runTicks(eng, etick, 61, 100)
				if eng.Stats().TrainSteps <= before.TrainSteps {
					t.Fatal("engine cannot train after a failed restore")
				}
			})
		}
	}
}

// TestRestoreRejectsOtherManifestVersion: a manifest of another schema is
// a hard error, not a restore with whichever fields happen to parse.
func TestRestoreRejectsOtherManifestVersion(t *testing.T) {
	src, tick := checkpointEngine(t, nil)
	defer src.Stop()
	runTicks(src, tick, 1, 100)
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := src.SaveSession(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestFile)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []string{`"version": 1`, `"version": 3`, `"versionless": 0`} {
		old := fmt.Sprintf(`"version": %d`, manifestVersion)
		if !bytes.Contains(buf, []byte(old)) {
			t.Fatalf("manifest has no %s: %s", old, buf)
		}
		if err := os.WriteFile(path, bytes.Replace(buf, []byte(old), []byte(version), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		eng, _ := checkpointEngine(t, nil)
		err := eng.RestoreSession(dir)
		eng.Stop()
		if err == nil || errors.Is(err, ErrNoSession) || !strings.Contains(err.Error(), "manifest version") {
			t.Fatalf("%s: got %v, want a manifest version error", version, err)
		}
	}
}

// TestCheckpointMissingManifest: a checkpoint directory with data files
// but no manifest is damage, not absence.
func TestCheckpointMissingManifest(t *testing.T) {
	src, tick := checkpointEngine(t, nil)
	defer src.Stop()
	runTicks(src, tick, 1, 100)
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := src.SaveSession(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestFile)); err != nil {
		t.Fatal(err)
	}
	eng, _ := checkpointEngine(t, nil)
	defer eng.Stop()
	err := eng.RestoreSession(dir)
	if err == nil || errors.Is(err, ErrNoSession) {
		t.Fatalf("manifest-less checkpoint must be a hard error, got %v", err)
	}
}

// TestCheckpointAbsentIsErrNoSession: an empty or missing directory is
// the one case that must report ErrNoSession (normal first boot).
func TestCheckpointAbsentIsErrNoSession(t *testing.T) {
	eng, _ := checkpointEngine(t, nil)
	defer eng.Stop()
	if err := eng.RestoreSession(filepath.Join(t.TempDir(), "nonexistent")); !errors.Is(err, ErrNoSession) {
		t.Fatalf("missing dir: want ErrNoSession, got %v", err)
	}
	empty := t.TempDir()
	if err := eng.RestoreSession(empty); !errors.Is(err, ErrNoSession) {
		t.Fatalf("empty dir: want ErrNoSession, got %v", err)
	}
}

// TestCheckpointSwapCrashRecovery reconstructs every window of the
// save-time staging and swap from two real checkpoints (S1 older, S2
// newer). In each, LoadCheckpoint must return exactly S1 or S2 — S2 only
// once the swap has begun with a complete staged save — and leave the
// crash model's invariants behind: dir holds that generation byte for
// byte, no old survives, and the spare holds no manifest. The next save
// must then succeed and be what loads.
func TestCheckpointSwapCrashRecovery(t *testing.T) {
	src, tick := checkpointEngine(t, nil)
	defer src.Stop()
	base := t.TempDir()
	s1, s2 := filepath.Join(base, "s1"), filepath.Join(base, "s2")
	runTicks(src, tick, 1, 100)
	if err := src.SaveSession(s1); err != nil {
		t.Fatal(err)
	}
	runTicks(src, tick, 101, 200)
	if err := src.SaveSession(s2); err != nil {
		t.Fatal(err)
	}
	if steps1, steps2 := manifestSteps(t, s1), manifestSteps(t, s2); steps1 == steps2 || steps1 == 0 {
		t.Fatalf("need two distinct checkpoints, got steps %d and %d", steps1, steps2)
	}
	removeManifest := func(t *testing.T, dir string) {
		if err := os.Remove(filepath.Join(dir, manifestFile)); err != nil {
			t.Fatal(err)
		}
	}
	// tear cuts the model in half and garbles the replay snapshot's
	// front, as an in-place overwrite cut short leaves them.
	tear := func(t *testing.T, dir string) {
		model := filepath.Join(dir, modelFile)
		buf, err := os.ReadFile(model)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(model, buf[:len(buf)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(dir, replayFile), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write([]byte("half a new generation")); err != nil {
			t.Fatal(err)
		}
	}

	// stage lays out one crash window under its own directory; want is
	// the generation LoadCheckpoint must return.
	cases := []struct {
		name  string
		want  string
		stage func(t *testing.T, dir string)
	}{
		{"crash-mid-stage", s1, func(t *testing.T, dir string) {
			// Crash while the spare was being overwritten: dir still
			// holds S1; the spare is torn and has no manifest.
			copyDir(t, s1, dir)
			copyDir(t, s2, dir+tmpSuffix)
			removeManifest(t, dir+tmpSuffix)
			tear(t, dir+tmpSuffix)
		}},
		{"crash-mid-stage-complete-tmp", s1, func(t *testing.T, dir string) {
			// Staging finished but the swap never started: the spare
			// holds a manifest while dir exists. dir wins; the staged
			// generation is never promoted or restored.
			copyDir(t, s1, dir)
			copyDir(t, s2, dir+tmpSuffix)
		}},
		{"crash-between-renames", s2, func(t *testing.T, dir string) {
			// dir was renamed away, the staged tmp not yet promoted: the
			// tmp holds a complete (manifest-bearing) S2.
			copyDir(t, s1, dir+oldSuffix)
			copyDir(t, s2, dir+tmpSuffix)
		}},
		{"crash-between-renames-torn-tmp", s1, func(t *testing.T, dir string) {
			// Only reachable by damage: dir parked, tmp without a
			// manifest. The parked generation rolls back.
			copyDir(t, s1, dir+oldSuffix)
			copyDir(t, s2, dir+tmpSuffix)
			removeManifest(t, dir+tmpSuffix)
		}},
		{"crash-before-old-cleanup", s2, func(t *testing.T, dir string) {
			// The swap landed; the superseded generation still has its
			// manifest and was not yet turned into the spare.
			copyDir(t, s1, dir+oldSuffix)
			copyDir(t, s2, dir)
		}},
		{"crash-after-manifest-unlink", s2, func(t *testing.T, dir string) {
			// The superseded manifest is gone, the rename to the spare
			// never happened.
			copyDir(t, s1, dir+oldSuffix)
			removeManifest(t, dir+oldSuffix)
			copyDir(t, s2, dir)
		}},
		{"old-and-spare", s2, func(t *testing.T, dir string) {
			// A parked generation beside an existing spare (damage, not
			// a crash window): one spare is kept, old goes.
			copyDir(t, s2, dir)
			copyDir(t, s1, dir+oldSuffix)
			copyDir(t, s1, dir+tmpSuffix)
			removeManifest(t, dir+tmpSuffix)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ckpt")
			c.stage(t, dir)
			cp, err := LoadCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := cp.manifest.TrainSteps, manifestSteps(t, c.want); got != want {
				t.Fatalf("recovered the wrong generation: %d steps, want %d", got, want)
			}
			for _, f := range []string{modelFile, replayFile, historyFile, manifestFile} {
				if !bytes.Equal(readFile(t, filepath.Join(dir, f)), readFile(t, filepath.Join(c.want, f))) {
					t.Fatalf("recovered %s differs from the generation it claims", f)
				}
			}
			checkAtRest(t, dir)

			// The next save succeeds and is what loads.
			next, ntick := checkpointEngine(t, nil)
			defer next.Stop()
			runTicks(next, ntick, 1, 50)
			if err := next.SaveSession(dir); err != nil {
				t.Fatal(err)
			}
			checkAtRest(t, dir)
			if cp, err := LoadCheckpoint(dir); err != nil || cp.manifest.TrainSteps != next.Stats().TrainSteps {
				t.Fatalf("after the next save: %v", err)
			}
		})
	}
}

// checkAtRest asserts the invariants a checkpoint directory holds
// between saves: no parked generation, and a spare, if any, without a
// manifest.
func checkAtRest(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(dir + oldSuffix); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("%s survived: %v", dir+oldSuffix, err)
	}
	if _, err := os.Stat(filepath.Join(dir+tmpSuffix, manifestFile)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the spare holds a manifest: %v", err)
	}
}

func manifestSteps(t *testing.T, dir string) int64 {
	t.Helper()
	var m sessionManifest
	if err := json.Unmarshal(readFile(t, filepath.Join(dir, manifestFile)), &m); err != nil {
		t.Fatal(err)
	}
	return m.TrainSteps
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestCheckpointInPlaceOverwriteExact: a save that overwrites a spare
// holding a longer generation writes exactly the bytes a save into a
// fresh directory does — nothing of the longer files survives past the
// new length — and twenty saves leave the checkpoint files in the
// checkpoint and its spare, and nothing else: no per-file *.tmp, no
// parked generation.
func TestCheckpointInPlaceOverwriteExact(t *testing.T) {
	big, btick := checkpointEngine(t, func(c *Config) { c.Hyper.ReplayCapacity = 256 })
	defer big.Stop()
	runTicks(big, btick, 1, 600) // a full, wrapped ring and a long history
	small, stick := checkpointEngine(t, func(c *Config) { c.Hyper.ReplayCapacity = 256 })
	defer small.Stop()
	runTicks(small, stick, 1, 40)

	base := t.TempDir()
	dir, fresh := filepath.Join(base, "ckpt"), filepath.Join(base, "fresh")
	for _, save := range []*Engine{big, small, small} { // the last overwrites big's generation
		if err := save.SaveSession(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := small.SaveSession(fresh); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{modelFile, replayFile, historyFile, manifestFile} {
		got, want := readFile(t, filepath.Join(dir, f)), readFile(t, filepath.Join(fresh, f))
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes written over the longer generation, %d in a fresh directory, contents differ", f, len(got), len(want))
		}
	}

	for i := 0; i < 20; i++ {
		runTicks(small, stick, *stick, *stick+5)
		if err := small.SaveSession(dir); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpoint holds the four files; the spare the same less the
	// manifest unlinked when it was superseded.
	for d, want := range map[string][]string{
		dir:             {historyFile, modelFile, replayFile, manifestFile},
		dir + tmpSuffix: {historyFile, modelFile, replayFile},
	} {
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		if slices.Sort(want); !slices.Equal(names, want) {
			t.Errorf("%s holds %v, want %v", d, names, want)
		}
	}
	ents, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if n := e.Name(); n != "ckpt" && n != "ckpt"+tmpSuffix && n != "fresh" {
			t.Errorf("stray %s beside the checkpoint", n)
		}
	}
}

// TestSaveRestoreContinueStepAlignment: a save/restore in the middle of
// training resumes the global train-step counter, so every tick after
// the restore lands on the same global step as an uninterrupted run —
// the counter is part of the checkpoint, not an artifact of process
// lifetime.
func TestSaveRestoreContinueStepAlignment(t *testing.T) {
	const saveAt, end = 47, 120
	ref, rtick := checkpointEngine(t, nil)
	defer ref.Stop()
	refSteps := map[int64]int64{}
	for *rtick = 1; *rtick <= end; *rtick++ {
		ref.Tick(*rtick)
		refSteps[*rtick] = ref.Stats().TrainSteps
	}

	a, atick := checkpointEngine(t, nil)
	defer a.Stop()
	runTicks(a, atick, 1, saveAt)
	savedSteps := a.Stats().TrainSteps
	if savedSteps == 0 || savedSteps != refSteps[saveAt] {
		t.Fatalf("save point at step %d, want the reference's %d (> 0)", savedSteps, refSteps[saveAt])
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := a.SaveSession(dir); err != nil {
		t.Fatal(err)
	}

	b, btick := checkpointEngine(t, nil)
	defer b.Stop()
	if err := b.RestoreSession(dir); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().TrainSteps; got != savedSteps {
		t.Fatalf("restored %d steps, want %d", got, savedSteps)
	}
	for *btick = saveAt + 1; *btick <= end; *btick++ {
		b.Tick(*btick)
		if got, want := b.Stats().TrainSteps, refSteps[*btick]; got != want {
			t.Fatalf("tick %d: restored run at step %d, uninterrupted run at %d", *btick, got, want)
		}
	}
	if b.Stats().TrainSteps <= savedSteps {
		t.Fatal("restored run never trained")
	}
}
