package replay

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"capes/internal/tensor"
	"capes/internal/wire"
)

// Snapshot persistence. The SQLite file of the original prototype gave the
// Replay DB durability across daemon restarts (§A.4: "different sessions
// can use different ... replay database locations"). We provide the same
// capability as an explicit snapshot: the ring's occupied slots in tick
// order, in the file framing of internal/wire (magic, version, checksum
// trailer), every integer fixed-width little-endian:
//
//	offset  size    field
//	0       8       magic "CAPESRDB"
//	8       4       u32 format version (3)
//	12      8       u64 Config.FrameWidth W
//	20      8       u64 Config.StackTicks
//	28      8       f64 Config.MissingTolerance
//	36      8       u64 Config.Capacity
//	44      8       u64 evictions so far
//	52      8       u64 stale writes so far
//	60      8       u64 T, ticks holding a frame and/or an action
//	68      8       u64 F, ticks holding a frame
//	76      8       u64 A, ticks holding an action
//	84      8·T     i64 the ticks, ascending
//	…       T       u8  presence flags per tick (1 frame, 2 action, 3 both)
//	…       4·A     i32 action ids, in tick order
//	…       4·W·F   f32 frame rows, in tick order
//	…       4       u32 CRC-32C of every byte before it
//
// Save streams rows out of the ring and Load streams them back into a
// ring allocated once at its final size; neither holds a second copy of
// the slab. The rows of ticks in consecutive slots go out and come back
// as one run, straight between the slab and the file, so a full ring —
// even one whose window wraps past the end of its arrays — moves as at
// most two runs. Load compares the length the counts imply with the
// length of the file before it allocates, validates ticks and flags
// before it sizes the ring, and verifies the checksum before it returns.
// There is one format and no compression (see internal/wire/file.go):
// versions 1 and 2 were gob+flate streams and are not read — load and
// re-save them with the release that wrote them first.

const (
	snapshotMagic   = "CAPESRDB"
	snapshotVersion = 3

	snapshotHeaderLen = 84
)

// maxLoadWidth bounds the values per frame and per stacked observation a
// snapshot may declare; far above any real PI layout (the paper's is
// 1760 × 10).
const maxLoadWidth = 1 << 24

// maxLoadSpan bounds the tick span a snapshot may claim relative to its
// record count. The ring is dense over the window's tick span, so a
// corrupted (or adversarial) snapshot declaring a few records scattered
// across an astronomical tick range would otherwise make Load allocate
// the whole span. Any tick stream sampled at least once per 1024 ticks
// fits; real CAPES streams are one frame per tick.
func maxLoadSpan(records int) int64 {
	return 4096 + 1024*int64(records)
}

func checkLoadSpan(first, last int64, records int) error {
	if span := last - first + 1; span > maxLoadSpan(records) {
		return fmt.Errorf("replay: snapshot spans %d ticks with only %d records", span, records)
	}
	return nil
}

// checkLoadCells bounds the ring allocation a snapshot implies —
// span slots × FrameWidth floats — proportionally to the data the file
// actually carries (dataLen: frame values + tick entries). The
// ring allocates every slot's frame row whether or not a frame is
// present, so without this a tiny file declaring a huge FrameWidth and
// one action-only tick (no slab bytes to back it) would make Load
// attempt an arbitrarily large allocation. Legit snapshots carry
// ≈ one slot of data per slot; factor 64 covers gappy windows.
func checkLoadCells(first, last int64, width, dataLen int) error {
	const (
		// maxLoadCells caps the slab outright: 2 GiB of float32 — above
		// the paper-scale replay DB (70 h × 1760 PIs ≈ 0.45 G cells) —
		// because the proportional rule below still lets a large hostile
		// file ask for 64 times its own size.
		maxLoadCells = 1 << 29
	)
	if width <= 0 || width > maxLoadWidth {
		return fmt.Errorf("replay: snapshot frame width %d outside (0, %d]", width, int64(maxLoadWidth))
	}
	span := last - first + 1
	if span > (1<<62)/int64(width) { // overflow guard; span is already records-bounded
		return fmt.Errorf("replay: snapshot span %d × width %d overflows", span, width)
	}
	cells := span * int64(width)
	if cells > maxLoadCells {
		return fmt.Errorf("replay: snapshot implies %d ring cells, limit %d", cells, int64(maxLoadCells))
	}
	if cells > 4096+64*int64(dataLen) {
		return fmt.Errorf("replay: snapshot implies %d ring cells from %d data entries", cells, dataLen)
	}
	return nil
}

// eachWindowRangeLocked calls fn, in tick order, for the at most two
// ranges of consecutive slots [from, to) that hold the window [lo, hi];
// tick is the tick of slot from. The second range is the part of a
// window that wraps past the end of the arrays.
func (db *DB) eachWindowRangeLocked(fn func(from, to int, tick int64)) {
	if db.slots == 0 || db.hi < db.lo {
		return
	}
	from, n := db.slotOf(db.lo), int(db.hi-db.lo+1)
	to := min(from+n, db.slots)
	fn(from, to, db.lo)
	if wrapped := from + n - db.slots; wrapped > 0 {
		fn(0, wrapped, db.lo+int64(to-from))
	}
}

// eachFrameRunLocked calls fn, in tick order, with the slab rows of each
// run of consecutive slots holding a frame.
func (db *DB) eachFrameRunLocked(fn func(rows []float32)) {
	w := db.cfg.FrameWidth
	db.eachWindowRangeLocked(func(from, to int, _ int64) {
		start := -1
		for s := from; s <= to; s++ {
			if s < to && db.flags[s]&slotFrame != 0 {
				if start < 0 {
					start = s
				}
				continue
			}
			if start >= 0 {
				fn(db.slab[start*w : s*w])
				start = -1
			}
		}
	})
}

// occupancyLocked counts the ticks a snapshot lists, and those among them
// holding a frame and an action.
func (db *DB) occupancyLocked() (ticks, frames, acts uint64) {
	db.eachWindowRangeLocked(func(from, to int, _ int64) {
		for _, f := range db.flags[from:to] {
			if f != 0 {
				ticks++
			}
			if f&slotFrame != 0 {
				frames++
			}
			if f&slotAction != 0 {
				acts++
			}
		}
	})
	return ticks, frames, acts
}

// snapshotLen is the exact length of a snapshot with these counts.
func snapshotLen(ticks, frames, acts, width uint64) uint64 {
	return snapshotHeaderLen + 9*ticks + 4*acts + 4*width*frames + 4
}

// Save serializes the database to w.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ticks, frames, acts := db.occupancyLocked()
	fw := wire.NewFileWriter(w, snapshotMagic, snapshotVersion)
	fw.Uint64(uint64(db.cfg.FrameWidth))
	fw.Uint64(uint64(db.cfg.StackTicks))
	fw.Uint64(math.Float64bits(db.cfg.MissingTolerance))
	fw.Uint64(uint64(db.cfg.Capacity))
	fw.Uint64(uint64(db.evictions))
	fw.Uint64(uint64(db.stale))
	fw.Uint64(ticks)
	fw.Uint64(frames)
	fw.Uint64(acts)
	// The tick, flag and action tables are appended to the writer's
	// buffer a BulkChunk batch at a time.
	db.eachWindowRangeLocked(func(from, to int, tick int64) {
		for s := from; s < to; {
			b := fw.Avail(8)
			for ; s < to && len(b)+8 <= cap(b); s++ {
				if db.flags[s] != 0 {
					b = binary.LittleEndian.AppendUint64(b, uint64(tick+int64(s-from)))
				}
			}
			fw.Commit(b)
		}
	})
	db.eachWindowRangeLocked(func(from, to int, _ int64) {
		for s := from; s < to; {
			b := fw.Avail(1)
			for ; s < to && len(b) < cap(b); s++ {
				if f := db.flags[s]; f != 0 {
					b = append(b, f)
				}
			}
			fw.Commit(b)
		}
	})
	db.eachWindowRangeLocked(func(from, to int, _ int64) {
		for s := from; s < to; {
			b := fw.Avail(4)
			for ; s < to && len(b)+4 <= cap(b); s++ {
				if db.flags[s]&slotAction != 0 {
					b = binary.LittleEndian.AppendUint32(b, uint32(db.acts[s]))
				}
			}
			fw.Commit(b)
		}
	})
	db.eachFrameRunLocked(fw.Float32s)
	if err := fw.Close(); err != nil {
		return fmt.Errorf("replay: write snapshot: %w", err)
	}
	return nil
}

// Load reconstructs a database from a snapshot written by Save. Every
// structural claim of the file is validated before it is used, so a
// truncated or corrupted snapshot returns an error rather than a panic,
// an allocation the file cannot back, or an inconsistent database.
func Load(r io.Reader) (*DB, error) {
	fr, err := wire.NewFileReader(r, snapshotMagic, snapshotVersion)
	if err != nil {
		return nil, fmt.Errorf("replay: read snapshot: %w", err)
	}
	width, stack := fr.Uint64(), fr.Uint64()
	tolerance := math.Float64frombits(fr.Uint64())
	capacity, evictions, stale := fr.Uint64(), fr.Uint64(), fr.Uint64()
	nTicks, nFrames, nActs := fr.Uint64(), fr.Uint64(), fr.Uint64()
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("replay: read snapshot: %w", err)
	}
	if max(width, stack, capacity) > math.MaxInt || max(evictions, stale) > math.MaxInt64 {
		return nil, fmt.Errorf("replay: snapshot header field out of range")
	}
	cfg := Config{FrameWidth: int(width), StackTicks: int(stack), MissingTolerance: tolerance, Capacity: int(capacity)}
	db, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// Nothing in the file backs StackTicks, and the first observation on
	// the loaded DB allocates FrameWidth × StackTicks values.
	if stack > maxLoadWidth || width > maxLoadWidth/stack {
		return nil, fmt.Errorf("replay: snapshot observation is %d × %d values, limit %d", width, stack, int64(maxLoadWidth))
	}
	// The counts must account for the rest of the file exactly. Each is
	// first bounded by what is left, so the length they imply cannot
	// overflow, and nothing is allocated for a count the file cannot back.
	left := uint64(fr.Remaining())
	fits := nTicks <= left/9 && nFrames <= nTicks && nActs <= nTicks &&
		(nFrames == 0 || width <= left/4/nFrames)
	if !fits || snapshotLen(nTicks, nFrames, nActs, width) != snapshotHeaderLen+left+4 {
		return nil, fmt.Errorf("replay: snapshot claims %d ticks, %d frames of width %d and %d actions with %d bytes left",
			nTicks, nFrames, width, nActs, left)
	}
	// The tables are decoded straight out of the reader's buffer, a
	// BulkChunk batch at a time.
	ticks := make([]int64, nTicks)
	for i := 0; i < len(ticks); {
		b := fr.Buffered(8)
		if b == nil {
			break
		}
		batch := ticks[i:min(len(ticks), i+len(b)/8)]
		for j := range batch {
			batch[j] = int64(binary.LittleEndian.Uint64(b[8*j:]))
		}
		fr.Discard(8 * len(batch))
		i += len(batch)
	}
	flags := make([]uint8, nTicks)
	for i := 0; i < len(flags); {
		b := fr.Buffered(1)
		if b == nil {
			break
		}
		k := copy(flags[i:], b)
		fr.Discard(k)
		i += k
	}
	acts := make([]int32, nActs)
	for i := 0; i < len(acts); {
		b := fr.Buffered(4)
		if b == nil {
			break
		}
		batch := acts[i:min(len(acts), i+len(b)/4)]
		for j := range batch {
			batch[j] = int32(binary.LittleEndian.Uint32(b[4*j:]))
		}
		fr.Discard(4 * len(batch))
		i += len(batch)
	}
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("replay: read snapshot: %w", err)
	}
	if err := checkSnapshotTicks(cfg, ticks, flags, int(nFrames), int(nActs)); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.restoreLocked(ticks, flags, acts)
	db.eachFrameRunLocked(func(rows []float32) { fr.Float32sCheck(rows, finiteRows) })
	if err := fr.Close(); err != nil {
		return nil, fmt.Errorf("replay: read snapshot: %w", err)
	}
	db.evictions, db.stale = int64(evictions), int64(stale)
	return db, nil
}

// finiteRows refuses frame rows holding a NaN or ±Inf: a ring that held
// one would poison every minibatch that samples it, on every restore.
// SumSquares32 is finite exactly when every value is.
func finiteRows(rows []float32) error {
	if !tensor.IsFinite(tensor.SumSquares32(rows)) {
		return fmt.Errorf("replay: snapshot frame rows: %w", tensor.ErrNonFinite)
	}
	return nil
}

// restoreLocked sets an empty ring to the window, flags, actions and
// frame bookkeeping of a tick table checkSnapshotTicks has accepted:
// ascending ticks whose span fits the ring, so every tick lands in its
// own slot with nothing to evict. The ring is allocated once, at the
// size writing the ticks one by one would have grown it to; the frame
// rows are left for the caller to fill.
func (db *DB) restoreLocked(ticks []int64, flags []uint8, acts []int32) {
	n := len(ticks)
	if n == 0 {
		return
	}
	db.growLocked(ticks[n-1]-ticks[0]+1, 0, -1)
	db.lo, db.hi = ticks[0], ticks[n-1]
	first, ai := db.slotOf(db.lo), 0
	for i, t := range ticks {
		s := first + int(t-db.lo) // t-lo < slots: at most one wrap
		if s >= db.slots {
			s -= db.slots
		}
		f := flags[i]
		db.flags[s] = f
		if f&slotAction != 0 {
			db.acts[s] = acts[ai]
			ai++
		}
		if f&slotFrame != 0 {
			if db.minFrame < 0 {
				db.minFrame = t
			}
			db.maxFrame = t
			db.count++
		}
	}
}

// checkSnapshotTicks validates a snapshot's tick table against its header:
// ascending non-negative ticks, known flags that add up to the declared
// frame and action counts, and a span that the record count, the data in
// the file and a bounded Capacity all allow.
func checkSnapshotTicks(cfg Config, ticks []int64, flags []uint8, nFrames, nActs int) error {
	var prev int64 = -1
	frames, acts := 0, 0
	for i, t := range ticks {
		if t <= prev {
			return fmt.Errorf("replay: snapshot ticks not ascending at %d", t)
		}
		prev = t
		f := flags[i]
		if f == 0 || f&^(slotFrame|slotAction) != 0 {
			return fmt.Errorf("replay: snapshot flag %#x invalid at tick %d", f, t)
		}
		if f&slotFrame != 0 {
			frames++
		}
		if f&slotAction != 0 {
			acts++
		}
	}
	if frames != nFrames || acts != nActs {
		return fmt.Errorf("replay: snapshot flags mark %d frames and %d actions, header says %d and %d",
			frames, acts, nFrames, nActs)
	}
	n := len(ticks)
	if n == 0 {
		return nil
	}
	first, last := ticks[0], ticks[n-1]
	if err := checkLoadSpan(first, last, n); err != nil {
		return err
	}
	if err := checkLoadCells(first, last, cfg.FrameWidth, frames*cfg.FrameWidth+n); err != nil {
		return err
	}
	// A snapshot is written from a windowed ring, so its span can never
	// exceed a bounded Capacity. Over-span means corruption; replaying it
	// would silently evict records and desync the restored counters.
	if c := int64(cfg.Capacity); c > 0 && last-first+1 > c {
		return fmt.Errorf("replay: snapshot spans %d ticks, capacity %d", last-first+1, c)
	}
	return nil
}

// SaveFile writes a snapshot atomically to path.
func (db *DB) SaveFile(path string) error {
	return wire.WriteFileAtomic(path, db.Save)
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// MemoryBytes reports the resident size of the database: the float32
// frame slab plus the parallel flag and action arrays. Reported for the
// Table 2 "total size of the Replay DB in memory" row.
func (db *DB) MemoryBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	const (
		slabElem = 4 // float32
		actElem  = 4 // int32
		flagElem = 1
	)
	return int64(len(db.slab))*slabElem + int64(db.slots)*(actElem+flagElem)
}

// DiskBytes returns the serialized snapshot size (Table 2 "total size of
// the Replay DB on disk").
func (db *DB) DiskBytes() (int64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ticks, frames, acts := db.occupancyLocked()
	return int64(snapshotLen(ticks, frames, acts, uint64(db.cfg.FrameWidth))), nil
}
