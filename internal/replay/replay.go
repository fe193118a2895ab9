// Package replay implements the CAPES Replay Database (§3.5): per-tick
// system-status frames and per-tick actions, plus the Algorithm 1
// minibatch constructor used for experience replay. The original
// prototype used SQLite with WAL; here the store is an in-memory
// arena-backed ring with optional snapshot persistence, which preserves
// the algorithm exactly (the trainer only ever reads uniformly random
// timestamps and the Interface Daemon is the only writer).
//
// # Ring layout
//
// The database must absorb one frame per tick for days of training, so
// frames do not live in per-tick heap objects. All storage is three
// parallel flat arrays indexed by slot = tick % slots:
//
//	slab  []float32  — slots × FrameWidth, one frame row per slot
//	flags []uint8    — slotFrame/slotAction presence bits per slot
//	acts  []int32    — action id per slot
//
// The mapped tick window is [lo, hi]; its span never exceeds the slot
// count, so two in-window ticks cannot collide and a slot's occupant
// tick is implied. Writing a frame is a bounds check plus a copy into
// its ring row (zero steady-state allocations), eviction is index
// arithmetic (advancing the window clears the slots that fall out), and
// observation assembly and gap-fill walk the ring directly. When
// Capacity > 0 the window is exactly the newest Capacity ticks: a put
// beyond hi evicts everything older than hi-Capacity+1, and a put at or
// below hi-Capacity is dropped as stale (see Stale). Capacity == 0
// grows the arrays geometrically and never evicts. The arrays
// themselves grow lazily (doubling, clamped to Capacity), so a large
// configured capacity costs nothing until it fills.
//
// # float32 storage
//
// Frames are stored at float32 — half the resident bytes of the former
// float64-boxed store. The deployed engine trains at float32 and the
// minibatch path already converted on copy, so *observations* reaching
// a float32 network are bit-identical to before (one rounding per
// value, now at PutFrame instead of at batch assembly). The
// float64-facing accessors (FrameAt, ObservationInto at float64,
// reward-function inputs) widen the stored float32 values exactly, but they widen the
// *rounded* values: a RewardFunc now computes from float32-precision
// frames, so rewards (and any other float64 consumer of stored frames)
// can differ from the pre-ring values by up to ~1e-7 relative — the
// documented trade-off for halving replay memory.
//
// # Snapshots
//
// Save and Load persist the ring's occupied slots as one versioned
// little-endian file under a CRC-32C trailer; persist.go has the byte
// layout and the checks a loader makes before it allocates.
package replay

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"capes/internal/tensor"
)

// Frame is the flattened vector of performance indicators collected from
// every monitored node at one sampling tick.
type Frame []float64

// RewardFunc computes the reward for the transition from the frame at
// time t to the frame at time t+1 (paper §3.2: "after changing the
// congestion window size, we can measure the change of I/O throughput at
// the next second to use it as the reward").
//
// cur and next are scratch views valid only for the duration of the
// call: the sampling loops reuse their backing arrays for the next
// transition. A RewardFunc must read, not retain, them.
type RewardFunc func(cur, next Frame) float64

// Config sizes the database.
type Config struct {
	FrameWidth int // performance indicators per tick across all nodes
	StackTicks int // sampling ticks per observation (Table 1: 10)
	// MissingTolerance is the fraction of missing frames tolerated per
	// observation (Table 1: 0.20). An observation whose stack window has
	// more missing ticks than this is rejected by the sampler; tolerated
	// gaps are filled with the nearest earlier frame.
	MissingTolerance float64
	// Capacity bounds the number of retained ticks; 0 means unbounded.
	// When bounded, the database keeps the newest Capacity consecutive
	// ticks: writes beyond the newest tick evict everything older than
	// the window, and writes older than the window are dropped. Note
	// the unit is ticks, not frames — a stream that stores one frame
	// every k ticks retains Capacity/k frames (the pre-ring map store
	// counted frames), and resident memory is proportional to the
	// window's tick span either way, so the ring assumes a reasonably
	// dense tick stream (the CAPES Interface Daemon writes one frame
	// per sampling tick). An unbounded DB fed two ticks a vast distance
	// apart will try to allocate the whole span.
	Capacity int
}

// Slot presence bits (one flags byte per ring slot).
const (
	slotFrame  = 1 << 0
	slotAction = 1 << 1
)

// initialSlots is the ring's first allocation; it doubles from here.
const initialSlots = 16

// DB is the Replay Database. All methods are safe for one writer and many
// readers (the Interface Daemon writes, the DRL engine reads — §3.3).
type DB struct {
	mu  sync.RWMutex
	cfg Config

	// The arena ring: see the package comment for the layout.
	slab  []float32
	flags []uint8
	acts  []int32
	slots int

	lo, hi             int64 // mapped tick window; empty when hi < lo
	minFrame, maxFrame int64 // bounds over ticks holding frames; -1 when none
	count              int   // frames present
	evictions          int64 // frames dropped when the window advanced
	stale              int64 // writes dropped for arriving behind the window
}

// New creates an empty Replay DB.
func New(cfg Config) (*DB, error) {
	if cfg.FrameWidth <= 0 {
		return nil, errors.New("replay: FrameWidth must be positive")
	}
	if cfg.StackTicks <= 0 {
		return nil, errors.New("replay: StackTicks must be positive")
	}
	if !(cfg.MissingTolerance >= 0 && cfg.MissingTolerance < 1) { // NaN included
		return nil, fmt.Errorf("replay: MissingTolerance %v out of [0,1)", cfg.MissingTolerance)
	}
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("replay: Capacity %d must be >= 0", cfg.Capacity)
	}
	return &DB{
		cfg:      cfg,
		lo:       0,
		hi:       -1,
		minFrame: -1,
		maxFrame: -1,
	}, nil
}

// Config returns the database configuration.
func (db *DB) Config() Config { return db.cfg }

// errNegativeTick rejects ticks the ring cannot index.
var errNegativeTick = errors.New("replay: tick must be non-negative")

// slotOf maps an in-window tick to its ring slot. Caller guarantees
// lo <= t <= hi and db.slots > 0.
func (db *DB) slotOf(t int64) int { return int(t % int64(db.slots)) }

// ensureSlotLocked admits tick t into the window, advancing and evicting
// as needed, and returns its ring slot. ok is false when the tick is
// behind a bounded window (dropped as stale).
func (db *DB) ensureSlotLocked(t int64) (slot int, ok bool) {
	c := int64(db.cfg.Capacity)
	oldLo, oldHi := db.lo, db.hi // pre-update window: the re-place range
	switch {
	case db.hi < db.lo: // empty
		db.lo, db.hi = t, t
	case t > db.hi:
		if c > 0 {
			if newLo := t - c + 1; newLo > db.lo {
				db.evictBelowLocked(newLo)
				db.lo = newLo
			}
		}
		db.hi = t
	case t < db.lo:
		if c > 0 && t <= db.hi-c {
			db.stale++
			return 0, false
		}
		db.lo = t
	}
	db.growLocked(db.hi-db.lo+1, oldLo, oldHi)
	return db.slotOf(t), true
}

// evictBelowLocked clears every slot holding a tick below newLo —
// eviction is index arithmetic over the window prefix that fell out.
func (db *DB) evictBelowLocked(newLo int64) {
	end := newLo
	if end > db.hi+1 {
		end = db.hi + 1
	}
	for t := db.lo; t < end; t++ {
		s := db.slotOf(t)
		f := db.flags[s]
		if f == 0 {
			continue
		}
		if f&slotFrame != 0 {
			db.count--
			db.evictions++
		}
		db.flags[s] = 0
	}
	switch {
	case db.count == 0:
		db.minFrame, db.maxFrame = -1, -1
	case db.minFrame < end:
		for t := end; t <= db.maxFrame; t++ {
			if db.flags[db.slotOf(t)]&slotFrame != 0 {
				db.minFrame = t
				break
			}
		}
	}
}

// growLocked widens the ring until it holds span slots (doubling,
// clamped to Capacity), re-placing occupied slots under the new modulus.
// Only ticks of the pre-update window [oldLo, oldHi] are re-placed: the
// tick being admitted is not in the arrays yet, and under the old
// modulus it can alias an occupied slot.
func (db *DB) growLocked(span, oldLo, oldHi int64) {
	if int64(db.slots) >= span {
		return
	}
	newSlots := db.slots
	if newSlots == 0 {
		newSlots = initialSlots
	}
	for int64(newSlots) < span {
		newSlots *= 2
	}
	if c := db.cfg.Capacity; c > 0 && newSlots > c {
		newSlots = c // span never exceeds a bounded window's Capacity
	}
	w := db.cfg.FrameWidth
	slab := make([]float32, newSlots*w)
	flags := make([]uint8, newSlots)
	acts := make([]int32, newSlots)
	if db.slots > 0 {
		for t := oldLo; t <= oldHi; t++ {
			old := db.slotOf(t)
			if db.flags[old] == 0 {
				continue
			}
			nw := int(t % int64(newSlots))
			copy(slab[nw*w:(nw+1)*w], db.slab[old*w:(old+1)*w])
			flags[nw] = db.flags[old]
			acts[nw] = db.acts[old]
		}
	}
	db.slab, db.flags, db.acts, db.slots = slab, flags, acts, newSlots
}

// PutFrame stores the status frame for a tick, copying it into the
// tick's ring row at float32 — zero allocations once the ring is at
// size. Frames older than a bounded window are dropped (counted by
// Stale); negative ticks are rejected.
func (db *DB) PutFrame(tick int64, f Frame) error {
	if len(f) != db.cfg.FrameWidth {
		return fmt.Errorf("replay: frame width %d, want %d", len(f), db.cfg.FrameWidth)
	}
	if tick < 0 {
		return errNegativeTick
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.ensureSlotLocked(tick)
	if !ok {
		return nil
	}
	w := db.cfg.FrameWidth
	row := db.slab[s*w : (s+1)*w]
	for j, v := range f {
		row[j] = float32(v)
	}
	db.commitFrameLocked(tick, s)
	return nil
}

// commitFrameLocked is the bookkeeping tail shared by every frame write
// path once slot s holds tick's row: presence flag, record count and
// frame bounds.
func (db *DB) commitFrameLocked(tick int64, s int) {
	if db.flags[s]&slotFrame == 0 {
		db.count++
	}
	db.flags[s] |= slotFrame
	if db.minFrame < 0 || tick < db.minFrame {
		db.minFrame = tick
	}
	if tick > db.maxFrame {
		db.maxFrame = tick
	}
}

// putRowLocked is PutFrame for an already-narrowed row (snapshot
// restore), bypassing the float64 conversion.
func (db *DB) putRowLocked(tick int64, row []float32) {
	s, ok := db.ensureSlotLocked(tick)
	if !ok {
		return
	}
	w := db.cfg.FrameWidth
	copy(db.slab[s*w:(s+1)*w], row)
	db.commitFrameLocked(tick, s)
}

// PutAction records the action id taken at a tick. Like frames, actions
// live in the ring window: negative ticks and ticks behind a bounded
// window are dropped.
func (db *DB) PutAction(tick int64, action int) {
	if tick < 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.putActionLocked(tick, action)
}

func (db *DB) putActionLocked(tick int64, action int) {
	s, ok := db.ensureSlotLocked(tick)
	if !ok {
		return
	}
	db.acts[s] = int32(action)
	db.flags[s] |= slotAction
}

// Len returns the number of stored frames (Table 2 "number of records").
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.count
}

// Bounds returns the smallest and largest tick holding a frame (-1,-1
// when empty).
func (db *DB) Bounds() (min, max int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.minFrame, db.maxFrame
}

// frameRowLocked returns the ring row for tick t, or nil when t holds no
// frame. Caller holds at least a read lock; the row aliases the slab and
// must not escape the lock.
func (db *DB) frameRowLocked(t int64) []float32 {
	if t < db.lo || t > db.hi || db.slots == 0 {
		return nil
	}
	s := db.slotOf(t)
	if db.flags[s]&slotFrame == 0 {
		return nil
	}
	w := db.cfg.FrameWidth
	return db.slab[s*w : (s+1)*w]
}

// FrameAt returns a copy of the frame stored at tick, if present. Stored
// float32 values widen exactly into the returned float64 frame.
func (db *DB) FrameAt(tick int64) (Frame, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	row := db.frameRowLocked(tick)
	if row == nil {
		return nil, false
	}
	return widenInto(nil, row), true
}

// frameInto copies the frame at tick into dst (len FrameWidth) without
// allocating, reporting whether a frame was present.
func (db *DB) frameInto(dst Frame, tick int64) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	row := db.frameRowLocked(tick)
	if row == nil {
		return false
	}
	for j, v := range row {
		dst[j] = float64(v)
	}
	return true
}

// widenInto appends-or-reuses dst to hold src widened to float64.
func widenInto(dst Frame, src []float32) Frame {
	if cap(dst) >= len(src) {
		dst = dst[:len(src)]
	} else {
		dst = make(Frame, len(src))
	}
	for j, v := range src {
		dst[j] = float64(v)
	}
	return dst
}

// Range calls fn for every tick holding a frame and/or an action, in
// ascending order, until fn returns false. frame is nil when the tick
// holds only an action; like RewardFunc inputs, it is a scratch view
// valid only for the duration of the call (the same backing array is
// reused for the next record). Range holds the read lock throughout, so
// fn must not call back into this DB.
func (db *DB) Range(fn func(tick int64, frame Frame, action int, hasAction bool) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.slots == 0 {
		return
	}
	var scratch Frame
	for t := db.lo; t <= db.hi; t++ {
		s := db.slotOf(t)
		f := db.flags[s]
		if f == 0 {
			continue
		}
		var frame Frame
		if f&slotFrame != 0 {
			w := db.cfg.FrameWidth
			scratch = widenInto(scratch, db.slab[s*w:(s+1)*w])
			frame = scratch
		}
		action := 0
		if f&slotAction != 0 {
			action = int(db.acts[s])
		}
		if !fn(t, frame, action, f&slotAction != 0) {
			return
		}
	}
}

// ActionAt returns the action recorded at tick, if any.
func (db *DB) ActionAt(tick int64) (int, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.actionLocked(tick)
}

func (db *DB) actionLocked(t int64) (int, bool) {
	if t < db.lo || t > db.hi || db.slots == 0 {
		return 0, false
	}
	s := db.slotOf(t)
	if db.flags[s]&slotAction == 0 {
		return 0, false
	}
	return int(db.acts[s]), true
}

// ObservationWidth is the flattened observation size: StackTicks frames
// of FrameWidth indicators (Table 2 "observation size").
func (db *DB) ObservationWidth() int {
	return db.cfg.FrameWidth * db.cfg.StackTicks
}

// errObservation reasons for a rejected timestamp.
var (
	errTooManyMissing = errors.New("replay: too many missing frames in window")
)

// observationIntoFor assembles the stacked observation ending at tick t
// into dst (len ObservationWidth). Missing ticks within tolerance are
// filled with the nearest earlier frame in the window (zero if none).
// Caller holds at least a read lock.
//
// The walk reads ring rows directly. A float32 destination takes plain
// copies of the stored rows (the deployed engine path — storage already
// is the batch precision); any other element type converts each value
// exactly once as it is copied. One implementation serves every
// precision, so the window walk, carry-forward and tolerance rules
// cannot drift apart.
func observationIntoFor[E tensor.Element](db *DB, dst []E, t int64) error {
	d32, isF32 := any(dst).([]float32)
	s := int64(db.cfg.StackTicks)
	w := db.cfg.FrameWidth
	missing := 0
	var lastGood []float32
	for i := int64(0); i < s; i++ {
		tick := t - s + 1 + i
		f := db.frameRowLocked(tick)
		if f == nil {
			missing++
			f = lastGood // carry forward; nil means zero-fill below
		} else {
			lastGood = f
		}
		off := int(i) * w
		switch {
		case f == nil:
			for j := 0; j < w; j++ {
				dst[off+j] = 0
			}
		case isF32:
			copy(d32[off:off+w], f)
		default:
			for j, v := range f[:w] {
				dst[off+j] = E(v)
			}
		}
	}
	if float64(missing) > db.cfg.MissingTolerance*float64(s) {
		return errTooManyMissing
	}
	return nil
}

// Batch is one training minibatch: transitions w_t = (s_t, s_{t+1}, a_t,
// r_t) with observations flattened row-wise. The element type matches
// the consuming network's precision — the float32 DQN engine samples
// into a Batch[float32], so observations are plain copies of the stored
// float32 rows and rewards are converted exactly once at assembly.
type Batch[E tensor.Element] struct {
	States     []E // n×ObservationWidth, row-major
	NextStates []E // n×ObservationWidth, row-major
	Actions    []int
	Rewards    []E
	N          int
	Width      int

	// Reward-function scratch: the stored float32 rows widen into these
	// reusable float64 frames before each RewardFunc call, keeping the
	// steady-state sampling loop allocation-free.
	rfCur, rfNext Frame
}

// ErrInsufficientData is returned when the DB cannot possibly satisfy a
// minibatch request (fewer valid timestamps than needed).
var ErrInsufficientData = errors.New("replay: not enough data for a minibatch")

// ConstructMinibatchInto implements Algorithm 1: repeatedly draw uniform
// timestamps over the stored range, keep those with enough data (a valid
// s_t, s_{t+1} and recorded action), compute rewards via rf, until n
// transitions are gathered. maxAttempts bounds the retry loop so a sparse
// DB returns ErrInsufficientData instead of spinning. The element type E
// selects the batch precision (see Batch). It samples into a
// caller-owned batch, growing its buffers only when n or the observation
// width changes — the steady-state training loop reuses one batch with
// zero allocations per step. On error the batch contents are undefined.
//
// Observations are written straight into the batch's element type: a
// float32 batch takes plain copies of the stored rows, and the scalar
// reward rounds once as it is appended — no staging buffers anywhere on
// the path.
func ConstructMinibatchInto[E tensor.Element](db *DB, rng *rand.Rand, n int, rf RewardFunc, b *Batch[E]) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.count == 0 {
		return ErrInsufficientData
	}
	lo := db.minFrame + int64(db.cfg.StackTicks) - 1
	hi := db.maxFrame - 1 // need s_{t+1}
	if hi < lo {
		return ErrInsufficientData
	}
	w := db.ObservationWidth()
	b.N, b.Width = 0, w
	b.States = resizeSlice(b.States, n*w)
	b.NextStates = resizeSlice(b.NextStates, n*w)
	if cap(b.Actions) >= n {
		b.Actions = b.Actions[:0]
	} else {
		b.Actions = make([]int, 0, n)
	}
	if cap(b.Rewards) >= n {
		b.Rewards = b.Rewards[:0]
	} else {
		b.Rewards = make([]E, 0, n)
	}
	have := 0
	maxAttempts := 50 * n
	for attempts := 0; have < n && attempts < maxAttempts; attempts++ {
		t := lo + rng.Int63n(hi-lo+1)
		a, ok := db.actionLocked(t)
		if !ok {
			continue
		}
		if err := observationIntoFor(db, b.States[have*w:(have+1)*w], t); err != nil {
			continue
		}
		if err := observationIntoFor(db, b.NextStates[have*w:(have+1)*w], t+1); err != nil {
			continue
		}
		cur := db.frameRowLocked(t)
		next := db.frameRowLocked(t + 1)
		if cur == nil || next == nil {
			continue
		}
		b.rfCur = widenInto(b.rfCur, cur)
		b.rfNext = widenInto(b.rfNext, next)
		b.Actions = append(b.Actions, a)
		b.Rewards = append(b.Rewards, E(rf(b.rfCur, b.rfNext)))
		have++
	}
	if have < n {
		return fmt.Errorf("%w: gathered %d of %d", ErrInsufficientData, have, n)
	}
	b.N = n
	return nil
}

// ObservationInto assembles the stacked observation ending at tick t
// into dst (len ObservationWidth) at the destination's precision,
// applying the missing-entry tolerance. The per-tick action path uses it
// with a reusable float32 scratch so selecting an action allocates
// nothing; at float32 the copy is a straight memmove of the stored rows.
func ObservationInto[E tensor.Element](db *DB, dst []E, t int64) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if len(dst) != db.ObservationWidth() {
		return fmt.Errorf("replay: observation dst len %d, want %d", len(dst), db.ObservationWidth())
	}
	return observationIntoFor(db, dst, t)
}

// resizeSlice returns s with length n, reallocating only on growth.
func resizeSlice[E tensor.Element](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]E, n)
}
