package replay

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func mustDB(t testing.TB, cfg Config) *DB {
	t.Helper()
	db, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func fill(t testing.TB, db *DB, from, to int64) {
	t.Helper()
	w := db.Config().FrameWidth
	for tick := from; tick <= to; tick++ {
		f := make(Frame, w)
		for j := range f {
			f[j] = float64(tick)*10 + float64(j)
		}
		if err := db.PutFrame(tick, f); err != nil {
			t.Fatal(err)
		}
		db.PutAction(tick, int(tick)%3)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{FrameWidth: 0, StackTicks: 1},
		{FrameWidth: 1, StackTicks: 0},
		{FrameWidth: 1, StackTicks: 1, MissingTolerance: -0.1},
		{FrameWidth: 1, StackTicks: 1, MissingTolerance: 1.0},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestPutFrameWidthMismatch(t *testing.T) {
	db := mustDB(t, Config{FrameWidth: 3, StackTicks: 2})
	if err := db.PutFrame(1, Frame{1, 2}); err == nil {
		t.Fatal("expected width error")
	}
}

func TestPutFrameCopies(t *testing.T) {
	db := mustDB(t, Config{FrameWidth: 2, StackTicks: 1})
	f := Frame{1, 2}
	db.PutFrame(5, f)
	f[0] = 99
	got, ok := db.FrameAt(5)
	if !ok || got[0] != 1 {
		t.Fatal("PutFrame must copy")
	}
	got[1] = 98
	got2, _ := db.FrameAt(5)
	if got2[1] != 2 {
		t.Fatal("FrameAt must copy")
	}
}

func TestLenBoundsAndActions(t *testing.T) {
	db := mustDB(t, Config{FrameWidth: 2, StackTicks: 2})
	if mn, mx := db.Bounds(); mn != -1 || mx != -1 {
		t.Fatal("empty bounds wrong")
	}
	fill(t, db, 10, 20)
	if db.Len() != 11 {
		t.Fatalf("Len = %d", db.Len())
	}
	mn, mx := db.Bounds()
	if mn != 10 || mx != 20 {
		t.Fatalf("Bounds = %d,%d", mn, mx)
	}
	a, ok := db.ActionAt(12)
	if !ok || a != 0 {
		t.Fatalf("ActionAt(12) = %d,%v", a, ok)
	}
	if _, ok := db.ActionAt(99); ok {
		t.Fatal("ActionAt(99) should miss")
	}
	// Overwriting a tick must not inflate Len.
	db.PutFrame(15, Frame{0, 0})
	if db.Len() != 11 {
		t.Fatalf("Len after overwrite = %d", db.Len())
	}
}

func TestObservationStacking(t *testing.T) {
	db := mustDB(t, Config{FrameWidth: 2, StackTicks: 3})
	fill(t, db, 1, 5)
	obs, err := db.Observation(3)
	if err != nil {
		t.Fatal(err)
	}
	// Ticks 1,2,3 stacked oldest-first.
	want := []float64{10, 11, 20, 21, 30, 31}
	for i, v := range want {
		if obs[i] != v {
			t.Fatalf("obs = %v, want %v", obs, want)
		}
	}
}

func TestObservationMissingTolerance(t *testing.T) {
	// 10-tick stack with 20% tolerance: ≤2 missing ticks OK, 3 rejected.
	db := mustDB(t, Config{FrameWidth: 1, StackTicks: 10, MissingTolerance: 0.2})
	for tick := int64(1); tick <= 10; tick++ {
		if tick == 4 || tick == 7 { // two holes
			continue
		}
		db.PutFrame(tick, Frame{float64(tick)})
	}
	obs, err := db.Observation(10)
	if err != nil {
		t.Fatalf("2 missing of 10 should be tolerated: %v", err)
	}
	// Holes carry the nearest earlier frame forward.
	if obs[3] != 3 { // tick 4 missing → carries tick 3
		t.Fatalf("hole fill = %v", obs[3])
	}
	if obs[6] != 6 { // tick 7 missing → carries tick 6
		t.Fatalf("hole fill = %v", obs[6])
	}
	// Punch a third hole by rebuilding with one more missing.
	db2 := mustDB(t, Config{FrameWidth: 1, StackTicks: 10, MissingTolerance: 0.2})
	for tick := int64(1); tick <= 10; tick++ {
		if tick == 4 || tick == 7 || tick == 9 {
			continue
		}
		db2.PutFrame(tick, Frame{float64(tick)})
	}
	if _, err := db2.Observation(10); err == nil {
		t.Fatal("3 missing of 10 must exceed 20% tolerance")
	}
}

func TestObservationLeadingZeroFill(t *testing.T) {
	db := mustDB(t, Config{FrameWidth: 1, StackTicks: 4, MissingTolerance: 0.5})
	db.PutFrame(3, Frame{30})
	db.PutFrame(4, Frame{40})
	obs, err := db.Observation(4)
	if err != nil {
		t.Fatal(err)
	}
	if obs[0] != 0 || obs[1] != 0 || obs[2] != 30 || obs[3] != 40 {
		t.Fatalf("obs = %v", obs)
	}
}

func TestConstructMinibatch(t *testing.T) {
	db := mustDB(t, Config{FrameWidth: 2, StackTicks: 3, MissingTolerance: 0.2})
	fill(t, db, 0, 100)
	rng := rand.New(rand.NewSource(1))
	rf := func(cur, next Frame) float64 { return next[0] - cur[0] }
	b, err := ConstructMinibatch[float64](db, rng, 32, rf)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 32 || len(b.Actions) != 32 || len(b.Rewards) != 32 {
		t.Fatalf("batch sizes: N=%d actions=%d rewards=%d", b.N, len(b.Actions), len(b.Rewards))
	}
	if b.Width != 6 {
		t.Fatalf("width = %d", b.Width)
	}
	// Every reward must be 10 (frames increase by 10 per tick).
	for i, r := range b.Rewards {
		if r != 10 {
			t.Fatalf("reward[%d] = %v", i, r)
		}
	}
	// NextStates must be States shifted by one tick: the last frame of
	// next state at row i equals 10*(t+1)+j; spot-check consistency:
	// next[last frame] - state[last frame] == 10 elementwise on PI 0.
	w := b.Width
	for i := 0; i < b.N; i++ {
		sLast := b.States[i*w+w-2] // PI0 of newest tick in s_t
		nLast := b.NextStates[i*w+w-2]
		if nLast-sLast != 10 {
			t.Fatalf("row %d: next-state not one tick ahead (%v vs %v)", i, sLast, nLast)
		}
	}
}

func TestConstructMinibatchInsufficient(t *testing.T) {
	db := mustDB(t, Config{FrameWidth: 1, StackTicks: 5})
	rng := rand.New(rand.NewSource(1))
	rf := func(cur, next Frame) float64 { return 0 }
	if _, err := ConstructMinibatch[float64](db, rng, 4, rf); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("empty DB: err = %v", err)
	}
	fill(t, db, 0, 3) // too few ticks for even one stacked observation
	if _, err := ConstructMinibatch[float64](db, rng, 4, rf); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("short DB: err = %v", err)
	}
}

func TestConstructMinibatchSkipsActionlessTicks(t *testing.T) {
	db := mustDB(t, Config{FrameWidth: 1, StackTicks: 1})
	for tick := int64(0); tick <= 50; tick++ {
		db.PutFrame(tick, Frame{float64(tick)})
		if tick%2 == 0 {
			db.PutAction(tick, 1)
		}
	}
	rng := rand.New(rand.NewSource(2))
	b, err := ConstructMinibatch[float64](db, rng, 16, func(c, n Frame) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range b.Actions {
		if a != 1 {
			t.Fatal("sampled a tick without a recorded action")
		}
	}
	// Sampled states must all be even ticks.
	for i := 0; i < b.N; i++ {
		if int64(b.States[i])%2 != 0 {
			t.Fatalf("state tick %v has no action", b.States[i])
		}
	}
}

func TestCapacityEviction(t *testing.T) {
	db := mustDB(t, Config{FrameWidth: 1, StackTicks: 1, Capacity: 10})
	fill(t, db, 0, 24)
	if db.Len() != 10 {
		t.Fatalf("Len = %d, want 10", db.Len())
	}
	mn, mx := db.Bounds()
	if mn != 15 || mx != 24 {
		t.Fatalf("Bounds = %d,%d", mn, mx)
	}
	if db.evictions != 15 {
		t.Fatalf("Evictions = %d", db.evictions)
	}
	if _, ok := db.FrameAt(5); ok {
		t.Fatal("evicted frame still present")
	}
	if _, ok := db.FrameAt(20); !ok {
		t.Fatal("recent frame missing")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := mustDB(t, Config{FrameWidth: 3, StackTicks: 2, MissingTolerance: 0.2})
	fill(t, db, 5, 50)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != db.Len() {
		t.Fatalf("Len %d vs %d", got.Len(), db.Len())
	}
	f1, _ := db.FrameAt(30)
	f2, ok := got.FrameAt(30)
	if !ok {
		t.Fatal("frame 30 missing after load")
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("frame differs after round trip")
		}
	}
	a1, _ := db.ActionAt(30)
	a2, ok := got.ActionAt(30)
	if !ok || a1 != a2 {
		t.Fatal("action differs after round trip")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	db := mustDB(t, Config{FrameWidth: 1, StackTicks: 1})
	fill(t, db, 0, 5)
	path := filepath.Join(t.TempDir(), "replay.db")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 6 {
		t.Fatalf("Len = %d", got.Len())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("expected error")
	}
}

func TestMemoryAndDiskBytes(t *testing.T) {
	db := mustDB(t, Config{FrameWidth: 10, StackTicks: 2})
	fill(t, db, 0, 99)
	// 100 frames of 10 float32 values is the floor; the ring's slot
	// arrays sit on top. The float64 store needed >8 B per value — the
	// ceiling asserts the float32 halving actually happened (the ring
	// over-allocates at most 2× while growing).
	if mb := db.MemoryBytes(); mb < 100*10*4 || mb > 2*100*(10*4+5)+64 {
		t.Fatalf("MemoryBytes = %d, outside the float32 ring envelope", mb)
	}
	n, err := db.DiskBytes()
	if err != nil || n <= 0 {
		t.Fatalf("DiskBytes = %d, %v", n, err)
	}
}

// Property: for any contiguous fill, every timestamp in the valid range
// yields a minibatch whose States rows all decode back to stored frames.
func TestMinibatchStatesAreStoredFramesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, _ := New(Config{FrameWidth: 1, StackTicks: 2})
		n := 20 + rng.Intn(50)
		for tick := int64(0); tick <= int64(n); tick++ {
			db.PutFrame(tick, Frame{float64(tick)})
			db.PutAction(tick, 0)
		}
		b, err := ConstructMinibatch[float64](db, rng, 8, func(c, nx Frame) float64 { return 0 })
		if err != nil {
			return false
		}
		for i := 0; i < b.N; i++ {
			// Each state is [t-1, t]; consecutive and within range.
			a, bb := b.States[i*2], b.States[i*2+1]
			if bb-a != 1 || bb < 1 || bb > float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
