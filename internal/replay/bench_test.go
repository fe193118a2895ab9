package replay

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// Benchmarks for the two replay hot paths the control loop touches every
// tick — the frame write (Interface Daemon) and Algorithm 1 minibatch
// construction (DRL engine) — plus the memory footprint the arena ring
// exists to shrink. BenchmarkReplayPut and BenchmarkConstructMinibatch
// are part of the gated bench suite (.github/bench-baseline.txt).

const benchWidth = 64 // PIs per tick; ×4 stack = obs256, the PERF.md shape

func benchDB(b *testing.B, capacity int) (*DB, int64) {
	b.Helper()
	db, err := New(Config{FrameWidth: benchWidth, StackTicks: 4, MissingTolerance: 0.2, Capacity: capacity})
	if err != nil {
		b.Fatal(err)
	}
	f := make(Frame, benchWidth)
	tick := int64(0)
	for ; tick < int64(2*capacity); tick++ {
		for j := range f {
			f[j] = float64(tick) + float64(j)
		}
		if err := db.PutFrame(tick, f); err != nil {
			b.Fatal(err)
		}
		db.PutAction(tick, int(tick)%5)
	}
	return db, tick
}

// BenchmarkReplayPut writes one frame per op into a saturated bounded
// ring (steady state: slot copy + one eviction), against the golden
// map-backed store doing the same work.
func BenchmarkReplayPut(b *testing.B) {
	f := make(Frame, benchWidth)
	for j := range f {
		f[j] = float64(j)
	}
	b.Run("ring", func(b *testing.B) {
		db, tick := benchDB(b, 4096)
		b.SetBytes(benchWidth * 8) // input frame bytes consumed per op
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tick++
			if err := db.PutFrame(tick, f); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The pre-ring store at its own best: one heap copy per frame into a
	// map, amortized O(1) eviction of exactly the overflowed tick (the
	// seed implementation's loop for a dense stream). This is the honest
	// "before" for the per-op numbers in PERF.md — the golden reference
	// used by the differential tests pays a full scan per eviction and
	// would flatter the ring.
	b.Run("map", func(b *testing.B) {
		const capacity = 4096
		frames := make(map[int64]Frame)
		actions := make(map[int64]int)
		tick := int64(0)
		for ; tick < capacity; tick++ {
			frames[tick] = append(Frame(nil), f...)
			actions[tick] = int(tick) % 5
		}
		b.SetBytes(benchWidth * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tick++
			frames[tick] = append(Frame(nil), f...)
			actions[tick] = int(tick) % 5
			delete(frames, tick-capacity)
			delete(actions, tick-capacity)
		}
	})
}

// BenchmarkConstructMinibatch samples a 32-transition minibatch at the
// obs256 shape (64 PIs × 4 stacked ticks) from a saturated ring, at both
// batch precisions.
func BenchmarkConstructMinibatch(b *testing.B) {
	rf := func(cur, next Frame) float64 { return next[0] - cur[0] }
	b.Run("obs256/f32", func(b *testing.B) {
		db, _ := benchDB(b, 4096)
		rng := rand.New(rand.NewSource(1))
		var batch Batch[float32]
		if err := ConstructMinibatchInto(db, rng, 32, rf, &batch); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ConstructMinibatchInto(db, rng, 32, rf, &batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("obs256/f64", func(b *testing.B) {
		db, _ := benchDB(b, 4096)
		rng := rand.New(rand.NewSource(1))
		var batch Batch[float64]
		if err := ConstructMinibatchInto(db, rng, 32, rf, &batch); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ConstructMinibatchInto(db, rng, 32, rf, &batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReplayMemory reports resident bytes per million ticks for the
// arena ring versus the pre-ring float64 map store (the seed layout:
// one heap-allocated []float64 per tick plus two map entries). The
// fill is 200k ticks, extrapolated; the B/Mticks metric is what PERF.md
// quotes.
func BenchmarkReplayMemory(b *testing.B) {
	const ticks = 200_000
	f := make(Frame, benchWidth)
	for j := range f {
		f[j] = float64(j) * 1.5
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	b.Run("ring", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			before := heap()
			// Bounded at the fill size: the sustained-training shape,
			// where the ring's slot count equals Capacity exactly. (An
			// unbounded ring still growing sits up to 2× above this.)
			db, err := New(Config{FrameWidth: benchWidth, StackTicks: 4, Capacity: ticks})
			if err != nil {
				b.Fatal(err)
			}
			for t := int64(0); t < ticks; t++ {
				db.PutFrame(t, f)
				db.PutAction(t, int(t)%5)
			}
			after := heap()
			if db.Len() != ticks {
				b.Fatal("fill lost frames")
			}
			b.ReportMetric(float64(after-before)/ticks*1e6, "B/Mticks")
			runtime.KeepAlive(db)
		}
	})
	b.Run("map64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			before := heap()
			frames := make(map[int64]Frame)
			actions := make(map[int64]int)
			for t := int64(0); t < ticks; t++ {
				frames[t] = append(Frame(nil), f...)
				actions[t] = int(t) % 5
			}
			after := heap()
			if len(frames) != ticks {
				b.Fatal("fill lost frames")
			}
			b.ReportMetric(float64(after-before)/ticks*1e6, "B/Mticks")
			runtime.KeepAlive(frames)
			runtime.KeepAlive(actions)
		}
	})
}

// rigSnapshotDB is the ring of the repo benchmark's checkpoint-cycle
// workload: 32768 ticks of 5 nodes × 10 PIs, an action on every tick.
func rigSnapshotDB(b *testing.B) *DB {
	b.Helper()
	const ticks, width = 32768, 50
	db, err := New(Config{FrameWidth: width, StackTicks: 10, MissingTolerance: 0.2, Capacity: ticks})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	f := make(Frame, width)
	for t := int64(0); t < ticks; t++ {
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		if err := db.PutFrame(t, f); err != nil {
			b.Fatal(err)
		}
		db.PutAction(t, int(t)%5)
	}
	return db
}

// BenchmarkSnapshotSave serialises the benchmark-rig ring into a reused
// in-memory buffer; file_B is the snapshot's size.
func BenchmarkSnapshotSave(b *testing.B) {
	db := rigSnapshotDB(b)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil { // grows the buffer outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := db.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "file_B")
}

// BenchmarkSnapshotLoad rebuilds the benchmark-rig ring from memory.
func BenchmarkSnapshotLoad(b *testing.B) {
	var buf bytes.Buffer
	if err := rigSnapshotDB(b).Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil || db.Len() != 32768 {
			b.Fatalf("Load: %v", err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "file_B")
}
