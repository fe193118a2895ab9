package capesd

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"capes/internal/nn"
	"capes/internal/tensor"
)

// TestFloat64CheckpointRejectedBySession: a checkpoint restores only at
// the precision it was saved at, and the engine runs float32. A session
// directory whose model.ckpt is float64-tagged must fail the restore with
// an error naming both precisions, leave no session behind (name and
// directory free again) and leave the checkpoint files untouched.
func TestFloat64CheckpointRejectedBySession(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	m := NewManager()
	defer m.Shutdown()

	// A live session writes a float32 checkpoint into dir on delete.
	s, err := m.Create(testSession("xp", dir))
	if err != nil {
		t.Fatal(err)
	}
	pump(t, s.Addr(), 2, 4, 1, 50)
	waitFor(t, func() bool { return s.Stats().Engine.ReplayRecords > 0 }, "records")
	if err := m.Delete("xp"); err != nil {
		t.Fatal(err)
	}

	// Rewrite the model as a float64 checkpoint of the same network.
	modelPath := filepath.Join(dir, "model.ckpt")
	m32, err := nn.LoadFile[float32](modelPath)
	if err != nil {
		t.Fatal(err)
	}
	m64 := nn.NewMLP[float64](nil, m32.Activation, m32.Sizes...)
	tensor.Convert(m64.FlatParams(), m32.FlatParams())
	if err := m64.SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)

	_, err = m.Create(testSession("xp", dir))
	if err == nil {
		t.Fatal("a float64 checkpoint restored into the float32 engine")
	}
	if msg := err.Error(); !strings.Contains(msg, "float64") || !strings.Contains(msg, "float32") {
		t.Fatalf("restore error %q does not name both precisions", msg)
	}
	if _, ok := m.Get("xp"); ok || len(m.Sessions()) != 0 {
		t.Fatal("a failed restore left a session behind")
	}
	after := dirContents(t, dir)
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Fatalf("failed restore changed %s", name)
		}
	}
	if len(after) != len(before) {
		t.Fatalf("failed restore changed the directory: %d files, was %d", len(after), len(before))
	}
	// Name and directory were released: the directory under a second
	// name fails on its model again, not on a reservation, and the name
	// boots a fresh directory.
	if _, err := m.Create(testSession("yy", dir)); err == nil || !strings.Contains(err.Error(), "float64") {
		t.Fatalf("second restore of the rejected directory: %v", err)
	}
	fresh, err := m.Create(testSession("xp", filepath.Join(t.TempDir(), "fresh")))
	if err != nil {
		t.Fatalf("name still held after the failed restore: %v", err)
	}
	if fresh.Stats().Restored {
		t.Fatal("fresh directory reported a restore")
	}
}

// dirContents reads every regular file in dir by name.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}
