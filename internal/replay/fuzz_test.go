package replay

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// Fuzz targets for the two decode/update paths an operator can feed
// hostile or corrupted data into: the snapshot decoder (persist.go) and
// the sum-tree priority structure behind prioritized sampling. Corpus
// seeds live under testdata/fuzz/<Target>/ (checked in); CI additionally
// runs each target for a short wall-clock smoke.

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

// FuzzSumTree drives the priority update path with an arbitrary op tape
// (3 bytes per op: kind, index, weight/fraction) against a flat shadow
// array, checking the tree's total, point reads and prefix-weight
// sampling after every mutation. Weights are small integers so every
// float64 sum is exact and comparisons need no tolerance.
func FuzzSumTree(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 3, 1, 0, 7})             // set/set/sample
	f.Add([]byte{0, 0, 1, 2, 40, 0, 0, 200, 9, 1, 3, 3}) // growth past 200 leaves
	f.Add([]byte{1, 0, 0})                               // sample empty (skipped)
	f.Fuzz(func(t *testing.T, tape []byte) {
		s := newSumTree(4)
		shadow := make([]float64, s.cap)
		total := func() float64 {
			var sum float64
			for _, w := range shadow {
				sum += w
			}
			return sum
		}
		for i := 0; i+2 < len(tape); i += 3 {
			kind, idx, val := tape[i]%3, int(tape[i+1]), float64(tape[i+2]%32)
			switch kind {
			case 0: // point update
				if idx >= s.cap {
					s.grow(idx + 1)
					grown := make([]float64, s.cap)
					copy(grown, shadow)
					shadow = grown
				}
				s.Set(idx, val)
				shadow[idx] = val
			case 1: // prefix-weight sample
				want := total()
				if want <= 0 {
					continue
				}
				u := (float64(idx) + float64(tape[i+2])/256) / 256 * want
				if u >= want {
					u = want * 0.999
				}
				leaf := s.Sample(u)
				if leaf < 0 || leaf >= s.cap {
					t.Fatalf("Sample(%v) = %d out of range %d", u, leaf, s.cap)
				}
				if shadow[leaf] <= 0 {
					t.Fatalf("Sample(%v) landed on zero-weight leaf %d", u, leaf)
				}
				// u must fall inside the leaf's cumulative interval.
				var before float64
				for j := 0; j < leaf; j++ {
					before += shadow[j]
				}
				if u < before || u >= before+shadow[leaf] {
					t.Fatalf("Sample(%v) = leaf %d covering [%v,%v)", u, leaf, before, before+shadow[leaf])
				}
			case 2: // growth preserves weights
				s.grow(idx + 1)
				if s.cap > len(shadow) {
					grown := make([]float64, s.cap)
					copy(grown, shadow)
					shadow = grown
				}
			}
			if got, want := s.Total(), total(); got != want {
				t.Fatalf("op %d: Total = %v, shadow sum %v", i/3, got, want)
			}
			for j, w := range shadow {
				if s.Get(j) != w {
					t.Fatalf("op %d: Get(%d) = %v, shadow %v", i/3, j, s.Get(j), w)
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

// TestSumTreeFuzzTapeReplay runs the sum-tree fuzz body over random
// tapes in a regular test so the invariants execute on every `go test`
// run, not only under -fuzz.
func TestSumTreeFuzzTapeReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rounds := 200
	if testing.Short() {
		rounds = 40
	}
	for i := 0; i < rounds; i++ {
		tape := make([]byte, 3*(1+rng.Intn(40)))
		rng.Read(tape)
		s := newSumTree(4)
		for j := 0; j+2 < len(tape); j += 3 {
			idx, val := int(tape[j+1]), float64(tape[j+2]%32)
			if tape[j]%3 == 0 {
				if idx >= s.cap {
					s.grow(idx + 1)
				}
				s.Set(idx, val)
			}
		}
		var sum float64
		for j := 0; j < s.cap; j++ {
			sum += s.Get(j)
		}
		if math.Abs(sum-s.Total()) != 0 {
			t.Fatalf("tape %d: leaf sum %v != Total %v", i, sum, s.Total())
		}
	}
}
