package replay

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"

	"capes/internal/tensor"
	"capes/internal/wire"
)

// Hostile-input, golden and determinism tests for the snapshot format
// (persist.go). Tampering tests patch a header field of a valid snapshot
// in place and re-seal the checksum, so the check under test — not the
// CRC — is what has to refuse the file.

// Header field offsets, from the layout table in persist.go.
const (
	offVersion    = 8
	offFrameWidth = 12
	offStackTicks = 20
	offTolerance  = 28
	offCapacity   = 36
	offTicks      = 60
	offFrames     = 68
	offActs       = 76
)

func snapshotBytes(tb testing.TB, db *DB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// reseal recomputes the checksum trailer of a tampered snapshot.
func reseal(b []byte) []byte {
	body := b[:len(b)-4]
	sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], sum)
}

// patched returns a resealed copy of b with the u64 at off replaced.
func patched(b []byte, off int, v uint64) []byte {
	c := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(c[off:], v)
	return reseal(c)
}

// smallSnapshot is a 3-tick ring: tick 5 holds a frame and an action,
// tick 6 a frame, tick 8 an action.
func smallSnapshot(tb testing.TB) *DB {
	tb.Helper()
	db, err := New(Config{FrameWidth: 2, StackTicks: 2, MissingTolerance: 0.25, Capacity: 8})
	if err != nil {
		tb.Fatal(err)
	}
	db.PutFrame(5, Frame{1.5, -2})
	db.PutAction(5, 3)
	db.PutFrame(6, Frame{0.25, 1024})
	db.PutAction(8, -1)
	return db
}

// TestSnapshotGolden pins the byte layout: a change to it must fail here
// rather than orphan operators' snapshots.
func TestSnapshotGolden(t *testing.T) {
	const want = "" +
		"4341504553524442" + "03000000" + // magic, version
		"0200000000000000" + "0200000000000000" + // FrameWidth, StackTicks
		"000000000000d03f" + "0800000000000000" + // MissingTolerance 0.25, Capacity
		"0000000000000000" + "0000000000000000" + // evictions, stale
		"0300000000000000" + "0200000000000000" + "0200000000000000" + // ticks, frames, actions
		"0500000000000000" + "0600000000000000" + "0800000000000000" + // the ticks
		"030102" + // flags
		"03000000" + "ffffffff" + // actions 3, −1
		"0000c03f" + "000000c0" + "0000803e" + "00008044" + // rows {1.5, −2} {0.25, 1024}
		"7a859f04" // CRC-32C
	got := snapshotBytes(t, smallSnapshot(t))
	if hex.EncodeToString(got) != want {
		t.Fatalf("snapshot layout changed:\n got %x\nwant %s", got, want)
	}
	db, err := Load(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := db.ActionAt(8); !ok || a != -1 || db.Len() != 2 {
		t.Fatalf("golden reloaded as Len=%d ActionAt(8)=%d,%v", db.Len(), a, ok)
	}
}

// TestSnapshotDeterministic: the same DB saves to the same bytes, a
// loaded DB saves to the bytes it was loaded from, and DiskBytes is the
// length without serialising.
func TestSnapshotDeterministic(t *testing.T) {
	for _, db := range fuzzSeedDBs(t) {
		a, b := snapshotBytes(t, db), snapshotBytes(t, db)
		if !bytes.Equal(a, b) {
			t.Fatal("two saves of one DB differ")
		}
		loaded, err := Load(bytes.NewReader(a))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotBytes(t, loaded), a) {
			t.Fatal("save → load → save changed the bytes")
		}
		if n, err := db.DiskBytes(); err != nil || n != int64(len(a)) {
			t.Fatalf("DiskBytes = %d, %v; snapshot is %d bytes", n, err, len(a))
		}
	}
}

// TestSnapshotSpecialFloatsBitExact: the slab round-trips as bits for
// every finite special value (−0, the smallest subnormal, ±MaxFloat32),
// and a ring holding a NaN of any payload or ±Inf is refused at load,
// both in a small run and in the last piece of a bulk run.
func TestSnapshotSpecialFloatsBitExact(t *testing.T) {
	row := []float32{
		float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32,
	}
	db := mustDB(t, Config{FrameWidth: len(row), StackTicks: 1})
	db.mu.Lock()
	db.putRowLocked(3, row)
	db.mu.Unlock()
	loaded, err := Load(bytes.NewReader(snapshotBytes(t, db)))
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.frameRowLocked(3)
	for i, v := range row {
		if math.Float32bits(got[i]) != math.Float32bits(v) {
			t.Fatalf("value %d: bits %#x → %#x", i, math.Float32bits(v), math.Float32bits(got[i]))
		}
	}

	const width, frames = 1024, 300 // 1.2 MB of rows: a bulk run of several pieces
	for _, bad := range []float32{
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffa5a5a5), // quiet and signalling NaN payloads
		float32(math.Inf(1)), float32(math.Inf(-1)),
	} {
		small := mustDB(t, Config{FrameWidth: len(row), StackTicks: 1})
		big := mustDB(t, Config{FrameWidth: width, StackTicks: 1})
		small.mu.Lock()
		small.putRowLocked(3, append(append([]float32(nil), row...), bad)[1:])
		small.mu.Unlock()
		big.mu.Lock()
		for tick := int64(1); tick <= frames; tick++ {
			r := make([]float32, width)
			if tick == frames {
				r[width-1] = bad
			}
			big.putRowLocked(tick, r)
		}
		big.mu.Unlock()
		for name, db := range map[string]*DB{"small": small, "bulk": big} {
			if _, err := Load(bytes.NewReader(snapshotBytes(t, db))); !errors.Is(err, tensor.ErrNonFinite) {
				t.Fatalf("%s run holding %v: got %v, want a non-finite refusal", name, bad, err)
			}
		}
	}
}

// TestLoadTruncatedEverywhere: every proper prefix of a snapshot fails to
// load, without a panic.
func TestLoadTruncatedEverywhere(t *testing.T) {
	full := snapshotBytes(t, smallSnapshot(t))
	for n := 0; n < len(full); n++ {
		if _, err := Load(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes loaded", n, len(full))
		}
	}
}

// TestLoadRejectsUnbackedCounts: a file of a few dozen bytes claiming 2³⁰
// ticks is refused on the count, before Load allocates for it.
func TestLoadRejectsUnbackedCounts(t *testing.T) {
	header := snapshotBytes(t, mustDB(t, Config{FrameWidth: 4, StackTicks: 1}))
	if len(header) != snapshotHeaderLen+4 {
		t.Fatalf("empty snapshot is %d bytes, want header + trailer", len(header))
	}
	for _, file := range [][]byte{
		patched(header, offTicks, 1<<30),
		patched(patched(header, offTicks, 1<<30), offFrames, 1<<30),
		patched(header, offFrames, 1<<30),
		patched(header, offActs, 1<<30),
		patched(header, offTicks, 1<<30)[:40], // and cut short of its own header
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("snapshot with counts its length cannot back loaded")
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("refusing a %d-byte file allocated %d bytes", len(file), grew)
		}
	}
}

// TestLoadRejectsTrailingGarbage: bytes after the checksum, or a longer
// body under a valid checksum, are refused.
func TestLoadRejectsTrailingGarbage(t *testing.T) {
	full := snapshotBytes(t, smallSnapshot(t))
	if _, err := Load(bytes.NewReader(append(append([]byte(nil), full...), "tail"...))); err == nil {
		t.Fatal("snapshot with trailing bytes loaded")
	}
	if _, err := Load(bytes.NewReader(reseal(append(append([]byte(nil), full...), 0, 0, 0, 0)))); err == nil {
		t.Fatal("snapshot with a padded, resealed body loaded")
	}
}

// TestLoadDetectsFlippedPayloadBit: damage inside the frame rows is still
// a structurally valid snapshot; the checksum is what catches it.
func TestLoadDetectsFlippedPayloadBit(t *testing.T) {
	full := snapshotBytes(t, smallSnapshot(t))
	for off := len(full) - 4 - 16; off < len(full)-4; off++ { // the four float32 of the two rows
		bad := append([]byte(nil), full...)
		bad[off] ^= 0x10
		if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, wire.ErrChecksum) {
			t.Fatalf("bit flipped at %d: got %v, want the checksum error", off, err)
		}
	}
}

// malformedSnapshot is a structurally hostile file under a valid checksum,
// with a fragment of the error the validation it aims at reports.
type malformedSnapshot struct {
	name, want string
	file       []byte
}

// malformedSnapshots double as the checked-in fuzz corpus.
func malformedSnapshots(tb testing.TB) []malformedSnapshot {
	small := snapshotBytes(tb, smallSnapshot(tb))
	tickAt := func(i int) int { return snapshotHeaderLen + 8*i }
	flagAt := func(i int) int { return snapshotHeaderLen + 8*3 + i }
	patchByte := func(off int, v byte) []byte {
		c := append([]byte(nil), small...)
		c[off] = v
		return reseal(c)
	}
	actionOnly := mustDB(tb, Config{FrameWidth: 1, StackTicks: 1})
	actionOnly.PutAction(7, 1)
	hostile := snapshotBytes(tb, actionOnly)
	wide := mustDB(tb, Config{FrameWidth: 1, StackTicks: 1, Capacity: 200})
	fill(tb, wide, 0, 99)
	return []malformedSnapshot{
		{"wrong magic", "bad file magic", patchByte(0, 'X')},
		{"unknown version", "unsupported file format version 4", patchByte(offVersion, snapshotVersion+1)},
		{"zero frame width", "FrameWidth must be positive", patched(small, offFrameWidth, 0)},
		{"stack ticks nothing backs", "observation is 2 × 1073741824 values", patched(small, offStackTicks, 1<<30)},
		{"NaN tolerance", "MissingTolerance NaN", patched(small, offTolerance, math.Float64bits(math.NaN()))},
		{"negative tick", "not ascending at -4", patched(small, tickAt(0), uint64(1<<64-4))},
		{"ticks not ascending", "not ascending at 5", patched(small, tickAt(1), 5)},
		{"span absurd for the record count", "with only 3 records", patched(small, tickAt(2), 1<<40)},
		{"empty flag", "flag 0x0 invalid", patchByte(flagAt(1), 0)},
		{"unknown flag bit", "flag 0x81 invalid", patchByte(flagAt(1), 0x81)},
		{"flags disagree with the counts", "header says 2 and 2", patchByte(flagAt(2), slotFrame)},
		// A width nothing in the file backs: the only tick is action-only.
		{"hostile width 2^59", "observation is 576460752303423488 × 1", patched(hostile, offFrameWidth, 1<<59)},
		{"hostile width 2^30", "observation is 1073741824 × 1", patched(hostile, offFrameWidth, 1<<30)},
		{"hostile width 2^20", "ring cells from 1 data entries", patched(hostile, offFrameWidth, 1<<20)},
		// More window span than the file's own Capacity: the windowed
		// writer cannot produce it, and replaying it would evict silently.
		{"span over capacity", "spans 100 ticks, capacity 10", patched(snapshotBytes(tb, wide), offCapacity, 10)},
	}
}

// loadMalformed loads the malformed snapshots whose name starts with
// prefix, expecting each refused for its own reason.
func loadMalformed(t *testing.T, prefix string) {
	t.Helper()
	n := 0
	for _, c := range malformedSnapshots(t) {
		if !strings.HasPrefix(c.name, prefix) {
			continue
		}
		n++
		if _, err := Load(bytes.NewReader(c.file)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error with %q", c.name, err, c.want)
		}
	}
	if n == 0 {
		t.Fatalf("no malformed snapshot named %q…", prefix)
	}
}

// TestLoadRejectsMalformed runs every malformed snapshot; magic and
// version mismatches must be told apart.
func TestLoadRejectsMalformed(t *testing.T) {
	loadMalformed(t, "")
	files := malformedSnapshots(t)
	if _, err := Load(bytes.NewReader(files[0].file)); !errors.Is(err, wire.ErrBadMagic) {
		t.Fatalf("wrong magic: %v", err)
	}
	if _, err := Load(bytes.NewReader(files[1].file)); !errors.Is(err, wire.ErrBadVersion) {
		t.Fatalf("unknown version: %v", err)
	}
}

// TestLoadV2RejectsOverSpan: a snapshot claiming more window span than its
// own Capacity is corrupt and must error rather than silently evict
// during replay.
func TestLoadV2RejectsOverSpan(t *testing.T) { loadMalformed(t, "span over capacity") }

// TestLoadRejectsHostileWidth pins the allocation guard: a tiny snapshot
// declaring an enormous FrameWidth with an action-only tick (so no slab
// bytes back the width claim) must error out of Load, not panic or
// attempt a span×width allocation.
func TestLoadRejectsHostileWidth(t *testing.T) { loadMalformed(t, "hostile width") }

// TestCheckLoadCellsAbsoluteCap: the slab bound must hold even when a
// hostile file is large enough to satisfy the proportional rule.
func TestCheckLoadCellsAbsoluteCap(t *testing.T) {
	// span 16384 × width 1<<20 = 2^34 cells, dataLen huge: proportional
	// rule passes, absolute cap must reject.
	if err := checkLoadCells(0, 16383, 1<<20, 1<<40); err == nil {
		t.Fatal("absolute cell cap not enforced")
	}
	// Paper-scale legit load stays accepted: 252k ticks × 1760 PIs.
	if err := checkLoadCells(0, 252000-1, 1760, 252000*1760+252000); err != nil {
		t.Fatalf("paper-scale snapshot rejected: %v", err)
	}
}

// TestSnapshotLargeTablesMatchLayout: a gappy ring whose tick, flag and
// action tables each span several write buffers — so every batch
// boundary falls at an odd offset — saves to exactly the bytes the
// layout in persist.go spells out field by field, and loads back to the
// same ring.
func TestSnapshotLargeTablesMatchLayout(t *testing.T) {
	db := wrappedSnapshot(t, 3, 20000, 30000)
	db.mu.RLock()
	ref := []byte(snapshotMagic)
	ref = binary.LittleEndian.AppendUint32(ref, snapshotVersion)
	ticks, frames, acts := db.occupancyLocked()
	if ticks*8 < 4*wire.BulkChunk {
		t.Fatalf("the tick table (%d ticks) must span several buffers", ticks)
	}
	for _, v := range []uint64{uint64(db.cfg.FrameWidth), uint64(db.cfg.StackTicks), math.Float64bits(db.cfg.MissingTolerance),
		uint64(db.cfg.Capacity), uint64(db.evictions), uint64(db.stale), ticks, frames, acts} {
		ref = binary.LittleEndian.AppendUint64(ref, v)
	}
	var flags, actions, rows []byte
	for tick := db.lo; tick <= db.hi; tick++ {
		s := db.slotOf(tick)
		f := db.flags[s]
		if f == 0 {
			continue
		}
		ref = binary.LittleEndian.AppendUint64(ref, uint64(tick))
		flags = append(flags, f)
		if f&slotAction != 0 {
			actions = binary.LittleEndian.AppendUint32(actions, uint32(db.acts[s]))
		}
		if f&slotFrame != 0 {
			rows = wire.AppendFloat32s(rows, db.slab[s*db.cfg.FrameWidth:(s+1)*db.cfg.FrameWidth])
		}
	}
	db.mu.RUnlock()
	ref = append(append(append(ref, flags...), actions...), rows...)
	ref = binary.LittleEndian.AppendUint32(ref, crc32.Checksum(ref, crc32.MakeTable(crc32.Castagnoli)))

	file := snapshotBytes(t, db)
	if !bytes.Equal(file, ref) {
		t.Fatalf("snapshot (%d bytes) differs from its layout (%d bytes)", len(file), len(ref))
	}
	loaded, err := Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	sameRing(t, loaded, db)
}
