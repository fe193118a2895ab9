package replay

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// Fuzz target for the decode path an operator can feed hostile or
// corrupted data into: the snapshot decoder (persist.go). Corpus seeds
// live under testdata/fuzz/FuzzSnapshotLoad/ (checked in); CI
// additionally runs the target for a short wall-clock smoke.

// fuzzSeedDBs builds two representative rings: a dense unbounded one and
// the bounded window left after evictions, both with actions on every
// other tick.
func fuzzSeedDBs(tb testing.TB) []*DB {
	tb.Helper()
	mk := func(cfg Config, ticks int64) *DB {
		db := mustDB(tb, cfg)
		for t := int64(0); t < ticks; t++ {
			f := make(Frame, cfg.FrameWidth)
			for j := range f {
				f[j] = float64(t) + float64(j)/8
			}
			if err := db.PutFrame(t, f); err != nil {
				tb.Fatal(err)
			}
			if t%2 == 0 {
				db.PutAction(t, int(t)%5)
			}
		}
		return db
	}
	return []*DB{
		mk(Config{FrameWidth: 3, StackTicks: 2, MissingTolerance: 0.2}, 24),
		mk(Config{FrameWidth: 2, StackTicks: 3, Capacity: 8}, 40),
	}
}

// fuzzSeedSnapshots are the in-code seeds: the two valid snapshots, then
// one truncated, one whose tick count its length cannot back, and one
// with a bad checksum.
func fuzzSeedSnapshots(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, db := range fuzzSeedDBs(tb) {
		out = append(out, snapshotBytes(tb, db))
	}
	dense := out[0]
	badSum := append([]byte(nil), dense...)
	badSum[len(badSum)-1] ^= 0xff
	return append(out, dense[:len(dense)/2], patched(dense, offTicks, 1<<30), badSum)
}

func FuzzSnapshotLoad(f *testing.F) {
	for _, seed := range fuzzSeedSnapshots(f) {
		f.Add(seed)
	}
	// A ring whose window wraps past the end of its arrays, so its frames
	// go out and come back as two runs.
	f.Add(snapshotBytes(f, wrappedSnapshot(f, 3, 12, 40)))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Load(bytes.NewReader(data))
		if err != nil && len(data) >= 4 {
			// A mutation almost always breaks the checksum first; sealed
			// again, it gets to the structural checks behind it.
			db, err = Load(bytes.NewReader(reseal(append([]byte(nil), data...))))
		}
		if err != nil {
			return // rejecting malformed input is the contract
		}
		// Whatever decoded must be an internally consistent database…
		mn, mx := db.Bounds()
		switch {
		case db.Len() == 0 && (mn != -1 || mx != -1):
			t.Fatalf("empty DB with bounds (%d,%d)", mn, mx)
		case db.Len() > 0 && (mn < 0 || mx < mn):
			t.Fatalf("%d records with bounds (%d,%d)", db.Len(), mn, mx)
		}
		if db.Len() > 0 {
			if _, ok := db.FrameAt(mn); !ok {
				t.Fatalf("no frame at lower bound %d", mn)
			}
			if _, ok := db.FrameAt(mx); !ok {
				t.Fatalf("no frame at upper bound %d", mx)
			}
		}
		if _, err := db.Observation(mx); err != nil && err != errTooManyMissing {
			t.Fatalf("Observation(%d): %v", mx, err)
		}
		// …and survive a save/load round trip unchanged.
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		db2, err := Load(&buf)
		if err != nil {
			t.Fatalf("re-load: %v", err)
		}
		if db2.Len() != db.Len() {
			t.Fatalf("round trip Len %d → %d", db.Len(), db2.Len())
		}
		mn2, mx2 := db2.Bounds()
		if mn2 != mn || mx2 != mx {
			t.Fatalf("round trip bounds (%d,%d) → (%d,%d)", mn, mx, mn2, mx2)
		}
		if db.Len() > 0 {
			a, _ := db.FrameAt(mx)
			b, ok := db2.FrameAt(mx)
			if !ok {
				t.Fatalf("round trip lost frame %d", mx)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("round trip frame %d[%d]: %v → %v", mx, j, a[j], b[j])
				}
			}
		}
	})
}

// TestWriteFuzzCorpusSeeds regenerates the checked-in corpus: the in-code
// seeds (testdata/fuzz/FuzzSnapshotLoad/valid-*) and the malformed
// snapshots of persist_test.go (…/seed-corpus-*). Guarded so it only runs
// when explicitly requested:
//
//	REPLAY_WRITE_CORPUS=1 go test ./internal/replay -run WriteFuzzCorpus
func TestWriteFuzzCorpusSeeds(t *testing.T) {
	if os.Getenv("REPLAY_WRITE_CORPUS") == "" {
		t.Skip("set REPLAY_WRITE_CORPUS=1 to regenerate corpus seeds")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotLoad")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, seed []byte) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, seed := range fuzzSeedSnapshots(t) {
		write(fmt.Sprintf("valid-%d", i), seed)
	}
	for i, c := range malformedSnapshots(t) {
		write(fmt.Sprintf("seed-corpus-%d", i), c.file)
	}
}
