package replay

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// Differential property harness: drive the arena ring and the golden
// map-backed reference with identical randomized op sequences — dense
// streams, out-of-order ticks, duplicate ticks, stale writes behind a
// bounded window, interleaved actions — and demand identical
// observations, rewards, gap-fills and rejection decisions at every
// step. Any divergence in the ring's index arithmetic (slot aliasing,
// eviction bookkeeping, growth re-placement, window bounds) shows up as
// a golden mismatch with the seed that produced it.

// diffConfig draws a randomized database shape.
func diffConfig(rng *rand.Rand) Config {
	return Config{
		FrameWidth:       1 + rng.Intn(4),
		StackTicks:       1 + rng.Intn(4),
		MissingTolerance: []float64{0, 0.2, 0.5}[rng.Intn(3)],
		Capacity:         []int{0, 1, 8, 40}[rng.Intn(4)],
	}
}

// diffReward is an arbitrary deterministic reward both stores must agree
// on exactly (inputs are identically widened float32 values).
func diffReward(cur, next Frame) float64 {
	return next[0] - cur[0] + 0.25*cur[len(cur)-1]
}

func checkState(t *testing.T, op int, ring *DB, gold *goldenDB, tickRange int64) {
	t.Helper()
	if ring.Len() != gold.len() {
		t.Fatalf("op %d: Len ring=%d golden=%d", op, ring.Len(), gold.len())
	}
	if ring.evictions != gold.evictions {
		t.Fatalf("op %d: Evictions ring=%d golden=%d", op, ring.evictions, gold.evictions)
	}
	if ring.stale != gold.stale {
		t.Fatalf("op %d: Stale ring=%d golden=%d", op, ring.stale, gold.stale)
	}
	rMin, rMax := ring.Bounds()
	gMin, gMax := gold.bounds()
	if rMin != gMin || rMax != gMax {
		t.Fatalf("op %d: Bounds ring=(%d,%d) golden=(%d,%d)", op, rMin, rMax, gMin, gMax)
	}
	for tick := int64(0); tick < tickRange; tick++ {
		rf, rok := ring.FrameAt(tick)
		gf, gok := gold.frameAt(tick)
		if rok != gok {
			t.Fatalf("op %d: FrameAt(%d) presence ring=%v golden=%v", op, tick, rok, gok)
		}
		for j := range rf {
			if rf[j] != gf[j] {
				t.Fatalf("op %d: FrameAt(%d)[%d] ring=%v golden=%v", op, tick, j, rf[j], gf[j])
			}
		}
		ra, rok := ring.ActionAt(tick)
		ga, gok := gold.actionAt(tick)
		if rok != gok || ra != ga {
			t.Fatalf("op %d: ActionAt(%d) ring=(%d,%v) golden=(%d,%v)", op, tick, ra, rok, ga, gok)
		}
	}
}

func runDifferential(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	cfg := diffConfig(rng)
	ring, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gold, err := newGolden(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const tickRange = 120
	// cursor drifts forward so sequences look like a real tick stream;
	// jitter produces out-of-order arrivals, duplicates and stale writes.
	cursor := int64(0)
	drawTick := func() int64 {
		if rng.Intn(4) == 0 {
			return rng.Int63n(tickRange) // anywhere: far behind or ahead
		}
		cursor += int64(rng.Intn(3)) // 0 = duplicate tick
		if cursor >= tickRange {
			cursor = tickRange - 1
		}
		return cursor - int64(rng.Intn(3)) // small reordering jitter
	}

	frame := make(Frame, cfg.FrameWidth)
	for op := 0; op < ops; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // frame write
			tick := drawTick()
			if tick < 0 {
				tick = 0
			}
			for j := range frame {
				frame[j] = rng.NormFloat64() * 100
			}
			rErr := ring.PutFrame(tick, frame)
			gErr := gold.putFrame(tick, frame)
			if (rErr == nil) != (gErr == nil) {
				t.Fatalf("op %d: PutFrame(%d) err ring=%v golden=%v", op, tick, rErr, gErr)
			}
		case 5, 6, 7: // action write
			tick := drawTick()
			if tick < 0 {
				tick = 0
			}
			a := rng.Intn(5)
			ring.PutAction(tick, a)
			gold.putAction(tick, a)
		case 8: // observation assembly (gap-fill + tolerance decision)
			at := rng.Int63n(tickRange)
			rObs, rErr := ring.Observation(at)
			gObs, gErr := gold.observation(at)
			if (rErr == nil) != (gErr == nil) {
				t.Fatalf("op %d: Observation(%d) err ring=%v golden=%v", op, at, rErr, gErr)
			}
			for j := range rObs {
				if rObs[j] != gObs[j] {
					t.Fatalf("op %d: Observation(%d)[%d] ring=%v golden=%v", op, at, j, rObs[j], gObs[j])
				}
			}
		case 9: // Algorithm 1 sampling: same seed, same draws, same rejections
			n := 1 + rng.Intn(8)
			sseed := rng.Int63()
			rBatch, rErr := ConstructMinibatch[float64](ring, rand.New(rand.NewSource(sseed)), n, diffReward)
			gBatch, gErr := gold.constructMinibatch(rand.New(rand.NewSource(sseed)), n, diffReward)
			if (rErr == nil) != (gErr == nil) {
				t.Fatalf("op %d: minibatch err ring=%v golden=%v", op, rErr, gErr)
			}
			if rErr != nil {
				if !errors.Is(rErr, ErrInsufficientData) || !errors.Is(gErr, ErrInsufficientData) {
					t.Fatalf("op %d: minibatch err kinds ring=%v golden=%v", op, rErr, gErr)
				}
				continue
			}
			compareBatches(t, op, rBatch, gBatch)
			// The float32 batch must be the golden float64 batch narrowed
			// once per value (storage already is float32, so narrowing
			// the widened values is exact).
			r32, err := ConstructMinibatch[float32](ring, rand.New(rand.NewSource(sseed)), n, diffReward)
			if err != nil {
				t.Fatalf("op %d: float32 minibatch: %v", op, err)
			}
			for i := range gBatch.States {
				if r32.States[i] != float32(gBatch.States[i]) {
					t.Fatalf("op %d: f32 state %d = %v, want %v", op, i, r32.States[i], float32(gBatch.States[i]))
				}
			}
			for i := range gBatch.Rewards {
				if r32.Rewards[i] != float32(gBatch.Rewards[i]) {
					t.Fatalf("op %d: f32 reward %d = %v, want %v", op, i, r32.Rewards[i], float32(gBatch.Rewards[i]))
				}
			}
		}
		checkState(t, op, ring, gold, tickRange)
	}

	// The snapshot round trip must preserve the (windowed) state the
	// golden reference agrees on.
	var buf bytes.Buffer
	if err := ring.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkState(t, -1, loaded, gold, tickRange)
}

func compareBatches(t *testing.T, op int, a, b *Batch[float64]) {
	t.Helper()
	if a.N != b.N || a.Width != b.Width {
		t.Fatalf("op %d: batch shape ring=%d×%d golden=%d×%d", op, a.N, a.Width, b.N, b.Width)
	}
	for i := range b.States {
		if a.States[i] != b.States[i] {
			t.Fatalf("op %d: state %d ring=%v golden=%v", op, i, a.States[i], b.States[i])
		}
		if a.NextStates[i] != b.NextStates[i] {
			t.Fatalf("op %d: next state %d ring=%v golden=%v", op, i, a.NextStates[i], b.NextStates[i])
		}
	}
	for i := range b.Actions {
		if a.Actions[i] != b.Actions[i] {
			t.Fatalf("op %d: action %d ring=%d golden=%d", op, i, a.Actions[i], b.Actions[i])
		}
		if a.Rewards[i] != b.Rewards[i] {
			t.Fatalf("op %d: reward %d ring=%v golden=%v", op, i, a.Rewards[i], b.Rewards[i])
		}
	}
}

func TestDifferentialRingVsGolden(t *testing.T) {
	seeds, ops := 40, 400
	if testing.Short() {
		seeds, ops = 12, 150
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			runDifferential(t, int64(seed)*7919+1, ops)
		})
	}
}

// TestDifferentialDenseStream pins the common production shape — a
// contiguous tick stream over a bounded window — for many more ticks
// than the randomized walk reaches, crossing several ring growths and
// thousands of evictions.
func TestDifferentialDenseStream(t *testing.T) {
	cfg := Config{FrameWidth: 3, StackTicks: 4, MissingTolerance: 0.25, Capacity: 256}
	ring, _ := New(cfg)
	gold, _ := newGolden(cfg)
	rng := rand.New(rand.NewSource(11))
	frame := make(Frame, cfg.FrameWidth)
	n := int64(5000)
	if testing.Short() {
		n = 1200
	}
	for tick := int64(0); tick < n; tick++ {
		if rng.Intn(10) == 0 {
			continue // dropped sample → gap-fill territory
		}
		for j := range frame {
			frame[j] = float64(tick) + float64(j)/4
		}
		if err := ring.PutFrame(tick, frame); err != nil {
			t.Fatal(err)
		}
		if err := gold.putFrame(tick, frame); err != nil {
			t.Fatal(err)
		}
		if tick%2 == 0 {
			ring.PutAction(tick, int(tick)%7)
			gold.putAction(tick, int(tick)%7)
		}
	}
	if ring.Len() != gold.len() || ring.evictions != gold.evictions {
		t.Fatalf("ring Len=%d Evictions=%d, golden Len=%d Evictions=%d",
			ring.Len(), ring.evictions, gold.len(), gold.evictions)
	}
	for _, tick := range gold.ticksSorted() {
		rf, ok := ring.FrameAt(tick)
		if !ok {
			t.Fatalf("ring missing tick %d", tick)
		}
		gf, _ := gold.frameAt(tick)
		for j := range rf {
			if rf[j] != gf[j] {
				t.Fatalf("tick %d value %d: ring=%v golden=%v", tick, j, rf[j], gf[j])
			}
		}
	}
	for i := 0; i < 20; i++ {
		sseed := rng.Int63()
		rb, rErr := ConstructMinibatch[float64](ring, rand.New(rand.NewSource(sseed)), 16, diffReward)
		gb, gErr := gold.constructMinibatch(rand.New(rand.NewSource(sseed)), 16, diffReward)
		if (rErr == nil) != (gErr == nil) {
			t.Fatalf("minibatch err ring=%v golden=%v", rErr, gErr)
		}
		if rErr == nil {
			compareBatches(t, i, rb, gb)
		}
	}
}
