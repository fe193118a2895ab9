package replay

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// wrappedSnapshot is a seeded ring whose window starts part-way through
// its arrays, so the occupied slots wrap past the end, and whose ticks
// mix frame+action, frame-only, action-only and empty ones. Frames are
// drawn so that most runs of contiguous frame slots are long; at the
// golden shape a run spans several wire.BulkChunk buffers.
func wrappedSnapshot(tb testing.TB, width, capacity int, ticks int64) *DB {
	tb.Helper()
	db := mustDB(tb, Config{FrameWidth: width, StackTicks: 3, MissingTolerance: 0.3, Capacity: capacity})
	rng := rand.New(rand.NewSource(35))
	f := make(Frame, width)
	for t := int64(0); t < ticks; t++ {
		kind := rng.Intn(40) // 0: empty, 1: action only, else a frame
		if kind >= 2 {
			for j := range f {
				f[j] = rng.NormFloat64()
			}
			if err := db.PutFrame(t, f); err != nil {
				tb.Fatal(err)
			}
		}
		if kind == 1 || kind >= 2 && rng.Intn(8) != 0 {
			db.PutAction(t, rng.Intn(9)-1)
		}
	}
	return db
}

// TestSnapshotGoldenDigest pins the bytes of a wrapped ring with gaps: a
// change to how Save walks the ring must not change what it writes.
// Load must rebuild exactly the ring that was saved.
func TestSnapshotGoldenDigest(t *testing.T) {
	const want = "eeb65151bed9daf308fc6f53a0d897873773d518fc8bbee7b2cba78daaad11db"
	db := wrappedSnapshot(t, 700, 160, 400)
	db.mu.RLock()
	wrapped := db.slots == 160 && db.slotOf(db.lo) > 0
	var kinds [4]int
	for tick := db.lo; tick <= db.hi; tick++ {
		kinds[db.flags[db.slotOf(tick)]]++
	}
	db.mu.RUnlock()
	if !wrapped || kinds[0] == 0 || kinds[slotFrame] == 0 || kinds[slotAction] == 0 {
		t.Fatalf("fixture must wrap (%v) and hold empty, frame-only and action-only ticks (%v)", wrapped, kinds)
	}
	file := snapshotBytes(t, db)
	if got := sha256.Sum256(file); hex.EncodeToString(got[:]) != want {
		t.Fatalf("wrapped snapshot sha256 = %x, want %s", got, want)
	}
	loaded, err := Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	sameRing(t, loaded, db)
	if !bytes.Equal(snapshotBytes(t, loaded), file) {
		t.Fatal("save → load → save changed the bytes")
	}
}

// sameRing fails unless got holds the same window, counters and records
// as want, slot for slot.
func sameRing(t *testing.T, got, want *DB) {
	t.Helper()
	got.mu.RLock()
	defer got.mu.RUnlock()
	want.mu.RLock()
	defer want.mu.RUnlock()
	if got.cfg != want.cfg || got.slots != want.slots || got.lo != want.lo || got.hi != want.hi ||
		got.count != want.count || got.minFrame != want.minFrame || got.maxFrame != want.maxFrame ||
		got.evictions != want.evictions || got.stale != want.stale {
		t.Fatalf("ring state differs:\n got %+v slots=%d [%d,%d] count=%d frames=[%d,%d] ev=%d stale=%d\nwant %+v slots=%d [%d,%d] count=%d frames=[%d,%d] ev=%d stale=%d",
			got.cfg, got.slots, got.lo, got.hi, got.count, got.minFrame, got.maxFrame, got.evictions, got.stale,
			want.cfg, want.slots, want.lo, want.hi, want.count, want.minFrame, want.maxFrame, want.evictions, want.stale)
	}
	if want.slots == 0 {
		return
	}
	w := want.cfg.FrameWidth
	for tick := want.lo; tick <= want.hi; tick++ {
		s := want.slotOf(tick)
		f := want.flags[s]
		if got.flags[s] != f {
			t.Fatalf("tick %d: flags %#x, want %#x", tick, got.flags[s], f)
		}
		if f&slotAction != 0 && got.acts[s] != want.acts[s] {
			t.Fatalf("tick %d: action %d, want %d", tick, got.acts[s], want.acts[s])
		}
		if f&slotFrame != 0 {
			for j, v := range want.slab[s*w : (s+1)*w] {
				if got.slab[s*w+j] != v {
					t.Fatalf("tick %d value %d: %v, want %v", tick, j, got.slab[s*w+j], v)
				}
			}
		}
	}
}
