package capes

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"capes/internal/replay"
)

// TestHistoryRingProperties drives the ring through randomized
// append sequences and asserts the structural invariants: length never
// exceeds capacity, ticks stay strictly monotone, Since honors the
// cursor, and the retained window is always the newest suffix.
func TestHistoryRingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		capacity := 1 + rng.Intn(64)
		h := newHistory(capacity)
		var tick int64
		var all []HistoryPoint
		n := rng.Intn(300)
		for i := 0; i < n; i++ {
			tick += 1 + int64(rng.Intn(5))
			p := HistoryPoint{Tick: tick, Reward: rng.Float64(), Loss: rng.Float64()}
			h.Record(p)
			all = append(all, p)

			if h.Len() > capacity {
				t.Fatalf("len %d exceeds cap %d", h.Len(), capacity)
			}
			snap := h.Snapshot()
			if len(snap) != h.Len() {
				t.Fatalf("snapshot len %d != Len %d", len(snap), h.Len())
			}
			// The window is the newest suffix of everything recorded.
			want := all
			if len(want) > capacity {
				want = want[len(want)-capacity:]
			}
			for j := range snap {
				if snap[j] != want[j] {
					t.Fatalf("trial %d: snapshot[%d] = %+v, want %+v", trial, j, snap[j], want[j])
				}
				if j > 0 && snap[j].Tick <= snap[j-1].Tick {
					t.Fatalf("ticks not monotone: %d after %d", snap[j].Tick, snap[j-1].Tick)
				}
			}
		}
		if n == 0 {
			continue
		}
		// Cursor semantics: Since(cursor) returns exactly the points
		// with Tick > cursor, for cursors on, between and past samples.
		snap := h.Snapshot()
		cursors := []int64{-1, 0, snap[0].Tick, snap[len(snap)/2].Tick, tick - 1, tick, tick + 10}
		for _, c := range cursors {
			got := h.Since(c)
			var want []HistoryPoint
			for _, p := range snap {
				if p.Tick > c {
					want = append(want, p)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("Since(%d) len = %d, want %d", c, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("Since(%d)[%d] = %+v, want %+v", c, j, got[j], want[j])
				}
			}
		}
	}
}

func TestHistoryLastAndRestore(t *testing.T) {
	h := newHistory(4)
	if len(h.buf) != 4 {
		t.Fatalf("capacity = %d", len(h.buf))
	}
	if h.Last() != (HistoryPoint{}) {
		t.Fatal("empty ring Last() must be zero")
	}
	pts := []HistoryPoint{{Tick: 1}, {Tick: 2}, {Tick: 3}, {Tick: 4}, {Tick: 5}, {Tick: 6}}
	h.restore(pts)
	if h.Len() != 4 {
		t.Fatalf("restore kept %d points, want 4", h.Len())
	}
	snap := h.Snapshot()
	if snap[0].Tick != 3 || snap[3].Tick != 6 {
		t.Fatalf("restore must keep the newest window, got %+v", snap)
	}
	if h.Last().Tick != 6 {
		t.Fatalf("Last = %+v", h.Last())
	}
	// Recording after a restore continues the same window.
	h.Record(HistoryPoint{Tick: 7})
	snap = h.Snapshot()
	if snap[0].Tick != 4 || snap[3].Tick != 7 {
		t.Fatalf("post-restore window = %+v", snap)
	}
}

// TestHistoryRecordAllocFree: Record is called on the engine tick path
// and must never allocate after construction.
func TestHistoryRecordAllocFree(t *testing.T) {
	h := newHistory(64)
	var tick int64
	allocs := testing.AllocsPerRun(1000, func() {
		tick++
		h.Record(HistoryPoint{Tick: tick, Reward: 1, Loss: 2})
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", allocs)
	}
}

// TestEngineTickAllocFreeWithHistory: with the replay ring at capacity
// a tick is 0 allocs/op, so history recording adds nothing to the tick
// path. Two engines: a monitor-only one (sample + telemetry record), and
// a tuning one whose controller accepts every action, run until the
// applied-action history ring has wrapped — stepping the parameters,
// applying them and recording the action all reuse engine-owned
// buffers. (The train step's own 0 allocs is rl's TestTrainStepAllocFree;
// it is left out here because its pooled matmul panels allocate under
// the race detector, which drops sync.Pool puts.)
func TestEngineTickAllocFreeWithHistory(t *testing.T) {
	t.Run("monitor", func(t *testing.T) {
		cfg, _ := smallConfig(t, false, false)
		eng := allocTestEngine(t, cfg, nil)
		if got := eng.Stats().HistoryPoints; got != 32 {
			t.Fatalf("history points = %d, want ring cap 32", got)
		}
	})
	t.Run("tuning", func(t *testing.T) {
		cfg, _ := smallConfig(t, true, false)
		cfg.Hyper.ExplorationPeriod = 1 << 40 // stay ε≈1: mostly non-NULL actions
		applied := 0
		eng := allocTestEngine(t, cfg, func([]float64) error { applied++; return nil })
		hist := eng.ActionHistory()
		if applied <= len(hist) || len(hist) != 256 {
			t.Fatalf("%d actions applied into a history of %d: the ring never wrapped", applied, len(hist))
		}
		for i := 1; i < len(hist); i++ {
			if hist[i].Tick <= hist[i-1].Tick {
				t.Fatalf("history out of order at %d: tick %d after %d", i, hist[i].Tick, hist[i-1].Tick)
			}
		}
		if last := hist[len(hist)-1].Values; last[0] != eng.CurrentValues()[0] {
			t.Fatalf("newest history values %v, engine applied %v", last, eng.CurrentValues())
		}
	})
}

// allocTestEngine builds an engine on cfg, warms it past ring growth and
// every ring's wrap (replay, telemetry and action history), requires the
// next ticks to allocate nothing, and returns it.
func allocTestEngine(t *testing.T, cfg Config, controller Controller) *Engine {
	t.Helper()
	cfg.Hyper.ReplayCapacity = 64
	cfg.HistoryEvery = 1 // record on every tick to maximize exposure
	cfg.HistoryCap = 32
	frame := replay.Frame{1, 2, 3}
	eng, err := NewEngine(cfg, func() (replay.Frame, error) { return frame, nil }, controller)
	if err != nil {
		t.Fatal(err)
	}
	var tick int64
	for tick = 1; tick <= 1024; tick++ {
		eng.Tick(tick)
	}
	allocs := testing.AllocsPerRun(500, func() {
		tick++
		eng.Tick(tick)
	})
	if allocs != 0 {
		t.Fatalf("tick path with history recording allocates %.1f/op, want 0", allocs)
	}
	return eng
}

// TestEngineHistorySampling: the engine records every HistoryEvery
// ticks, fills reward/loss/epsilon, and surfaces the newest sample in
// Stats.
func TestEngineHistorySampling(t *testing.T) {
	cfg, _ := smallConfig(t, true, true)
	cfg.HistoryEvery = 5
	cfg.HistoryCap = 100
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{2, 0, 0}, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 300; tick++ {
		eng.Tick(tick)
	}
	pts := eng.History()
	if len(pts) != 60 {
		t.Fatalf("history points = %d, want 60 (300 ticks / every 5)", len(pts))
	}
	for i, p := range pts {
		if p.Tick != int64(i+1)*5 {
			t.Fatalf("point %d at tick %d, want %d", i, p.Tick, int64(i+1)*5)
		}
		// Objective is SumIndices(0) on a constant frame.
		if p.Reward != 2 {
			t.Fatalf("reward = %v, want 2", p.Reward)
		}
		if p.Epsilon <= 0 || p.Epsilon > 1 {
			t.Fatalf("epsilon = %v", p.Epsilon)
		}
	}
	last := pts[len(pts)-1]
	if last.TrainSteps == 0 || last.Loss < 0 {
		t.Fatalf("training telemetry missing: %+v", last)
	}
	if last.RandomActions+last.CalcActions == 0 {
		t.Fatal("action mix missing")
	}
	st := eng.Stats()
	if st.HistoryPoints != 60 || st.LastReward != 2 || st.Epsilon != last.Epsilon || st.SmoothedLoss != last.Loss {
		t.Fatalf("stats don't reflect the newest sample: %+v", st)
	}

	// HistorySince pages by tick cursor.
	tail := eng.HistorySince(last.Tick - 25)
	if len(tail) != 5 {
		t.Fatalf("HistorySince = %d points, want 5", len(tail))
	}
	if got := eng.HistorySince(last.Tick); len(got) != 0 {
		t.Fatalf("HistorySince(newest) = %d points, want 0", len(got))
	}
}

// TestEngineHistoryDisabled: a negative HistoryEvery turns recording off.
func TestEngineHistoryDisabled(t *testing.T) {
	cfg, _ := smallConfig(t, true, false)
	cfg.HistoryEvery = -1
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return replay.Frame{1, 0, 0}, nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 50; tick++ {
		eng.Tick(tick)
	}
	if n := len(eng.History()); n != 0 {
		t.Fatalf("disabled history recorded %d points", n)
	}
}

// TestSessionSaveRestoreHistory: the telemetry ring round-trips through
// a checkpoint, and pre-telemetry checkpoints (no history.json) restore
// cleanly with an empty ring.
func TestSessionSaveRestoreHistory(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := smallConfig(t, true, true)
	cfg.HistoryEvery = 5
	collector := func() (replay.Frame, error) { return replay.Frame{1, 2, 3}, nil }
	controller := func([]float64) error { return nil }
	eng, err := NewEngine(cfg, collector, controller)
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 120; tick++ {
		eng.Tick(tick)
	}
	want := eng.History()
	if len(want) == 0 {
		t.Fatal("no history to checkpoint")
	}
	if err := eng.SaveSession(dir); err != nil {
		t.Fatal(err)
	}

	restored, err := NewEngine(cfg, collector, controller)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSession(dir); err != nil {
		t.Fatal(err)
	}
	got := restored.History()
	if len(got) != len(want) {
		t.Fatalf("restored %d points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("point %d: got %+v, want %+v", i, got[i], want[i])
		}
	}

	// A checkpoint without history.json (older sessions) still restores.
	if err := os.Remove(filepath.Join(dir, historyFile)); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(cfg, collector, controller)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreSession(dir); err != nil {
		t.Fatalf("restore without history.json: %v", err)
	}
	if n := len(fresh.History()); n != 0 {
		t.Fatalf("historyless restore has %d points", n)
	}
}

func BenchmarkHistoryRecord(b *testing.B) {
	h := newHistory(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(HistoryPoint{Tick: int64(i), Reward: 1.5, Loss: 0.25, Epsilon: 0.1})
	}
}
