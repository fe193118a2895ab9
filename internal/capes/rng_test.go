package capes

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"capes/internal/replay"
)

// sourceSeeds are the seeds the source is held to math/rand on: the
// defaults, both signs, the edges of math/rand's seed reduction modulo
// 2³¹−1 (which maps 0 to 89482311) and a seed past 32 bits.
var sourceSeeds = []int64{1, 0, -1, 42, 1<<31 - 1, 1 << 40, 89482311}

// TestEngineSourceMatchesMathRand: over 10 M draws per seed, a
// *rand.Rand on engineSource returns what one on rand.NewSource returns,
// through every method the engine, rl and replay call — Float64 (Xavier
// init, ε-greedy), Intn (random actions, and Int31n below it), Int63n
// (minibatch ticks) — and through Uint64, Int63 and Seed.
func TestEngineSourceMatchesMathRand(t *testing.T) {
	const draws = 10_000_000
	for _, seed := range sourceSeeds {
		got, want := rand.New(newEngineSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			var g, w uint64
			switch i % 8 {
			case 0, 1, 2:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 3:
				n := 1 + i%1000 // 1 draws nothing; powers of two take the fast path
				g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
			case 4:
				g, w = uint64(got.Intn(1<<40+i)), uint64(want.Intn(1<<40+i))
			case 5:
				n := int64(1+i%32768) << (i % 20)
				g, w = uint64(got.Int63n(n)), uint64(want.Int63n(n))
			case 6:
				g, w = got.Uint64(), want.Uint64()
			case 7:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			}
			if g != w {
				t.Fatalf("seed %d, draw %d (kind %d): %#x, math/rand %#x", seed, i, i%8, g, w)
			}
		}
		got.Seed(seed + 1)
		want.Seed(seed + 1)
		for i := 0; i < 2*rngLen+1; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("reseeded %d, draw %d: %#x, math/rand %#x", seed+1, i, g, w)
			}
		}
	}
}

// sameStream fails unless s's next n outputs are r's.
func sameStream(t *testing.T, what string, s *engineSource, r *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if g, w := s.Uint64(), r.Uint64(); g != w {
			t.Fatalf("%s: output %d after it is %#x, want %#x", what, i, g, w)
		}
	}
}

// TestSkipFloat64MatchesFloat64Calls: skipping n Float64 draws leaves
// the stream where n Float64 calls leave it, from the start of the
// stream and from the middle of a block, for n on either side of the
// block length and at the rig network's 502 500 Xavier draws.
func TestSkipFloat64MatchesFloat64Calls(t *testing.T) {
	for _, seed := range sourceSeeds {
		for _, lead := range []int{0, 1, 300, rngLen - 1} {
			for _, n := range []int{0, 1, 2, rngTap, rngLen - lead - 1, rngLen - lead, rngLen - lead + 1,
				2 * rngLen, 5000, 2*500*500 + 500*5} {
				s, r := newEngineSource(seed), rand.New(rand.NewSource(seed))
				for i := 0; i < lead; i++ {
					s.Uint64()
					r.Uint64()
				}
				s.SkipFloat64(n)
				for i := 0; i < n; i++ {
					r.Float64()
				}
				sameStream(t, fmt.Sprintf("seed %d, %d draws, skip %d", seed, lead, n), s, r, 10_000)
			}
		}
	}
}

// queueSource is a rand.Source64 that returns queued outputs.
type queueSource struct{ out []uint64 }

func (q *queueSource) Uint64() uint64 {
	x := q.out[0]
	q.out = q.out[1:]
	return x
}
func (q *queueSource) Int63() int64 { return int64(q.Uint64() & int63Mask) }
func (q *queueSource) Seed(int64)   {}

// TestFloat64RetryBoundary checks float64Retry against rand.Rand.Float64
// itself, for every Int63 from 2⁶³ − 4096 to 2⁶³ − 1 and with the top
// bit, which Int63 drops, both clear and set: Float64 takes a second
// output exactly for x ≥ 2⁶³ − 512. SkipFloat64 then counts those
// outputs as Float64 does, whether they sit in the current block or in
// one that SkipFloat64 refills itself.
func TestFloat64RetryBoundary(t *testing.T) {
	const low = 1<<63 - 4096
	for x := uint64(low); x <= int63Mask; x++ {
		for _, top := range []uint64{0, 1 << 63} {
			q := &queueSource{out: []uint64{x | top, 12345}}
			rand.New(q).Float64()
			if retried, want := len(q.out) == 0, x >= float64Retry; retried != want {
				t.Fatalf("Int63 %#x: Float64 drew again %v, float64Retry says %v", x, retried, want)
			}
		}
	}

	base := newEngineSource(3)
	for x := uint64(float64Retry - 600); x < float64Retry+600; x += 7 {
		for _, at := range []uint{0, 5, rngTap - 1, rngTap, rngLen - 1} {
			// In the current block, from its start.
			s := *base
			s.vec[at] = x | (uint64(at&1) << 63)
			r := s
			s.SkipFloat64(rngLen + 3)
			rr := rand.New(&r)
			for i := 0; i < rngLen+3; i++ {
				rr.Float64()
			}
			if s != r {
				t.Fatalf("Int63 %#x at %d of the current block: skip stopped at %d, Float64 at %d", x, at, s.pos, r.pos)
			}
			// In a block the skip refills: the same block, stepped back
			// one refill, with the cursor at its end.
			s = *base
			s.vec[at] = x | (uint64(at&1) << 63)
			want := s.vec
			unrefill(&s.vec)
			s.pos = rngLen
			c := s
			if c.refill(); c.vec != want {
				t.Fatal("unrefill is not the inverse of refill")
			}
			r = s
			s.SkipFloat64(2*rngLen + 1)
			rr = rand.New(&r)
			for i := 0; i < 2*rngLen+1; i++ {
				rr.Float64()
			}
			if s != r {
				t.Fatalf("Int63 %#x at %d of a refilled block: skip stopped at %d, Float64 at %d", x, at, s.pos, r.pos)
			}
		}
	}
}

// unrefill steps a block back one refill: the block whose refill is v.
func unrefill(v *[rngLen]uint64) {
	for k := rngLen - 1; k >= rngTap; k-- {
		v[k] -= v[k-rngTap]
	}
	for k := rngTap - 1; k >= 0; k-- {
		v[k] -= v[k+rngLen-rngTap]
	}
}

// restoreShapes are engine shapes — PIs per tick, ticks per
// observation, tunables — from a one-PI toy to the rig's 500-wide
// network.
var restoreShapes = []struct{ width, ticks, tunables int }{
	{1, 1, 1}, {3, 2, 1}, {8, 2, 2}, {7, 3, 3}, {50, 10, 2},
}

func shapeConfig(t *testing.T, width, ticks, tunables int) Config {
	t.Helper()
	var ts []Tunable
	for i := 0; i < tunables; i++ {
		ts = append(ts, Tunable{Name: fmt.Sprintf("t%d", i), Min: 0, Max: 100, Step: 5, Default: 50})
	}
	space, err := NewActionSpace(ts...)
	if err != nil {
		t.Fatal(err)
	}
	h := DefaultHyperparameters()
	h.TicksPerObservation = ticks
	return Config{
		Hyper:      h,
		Space:      space,
		Objective:  SumIndices(0),
		FrameWidth: width,
		Seed:       int64(width*100 + ticks*10 + tunables),
		Training:   true,
		Tuning:     true,
	}
}

// TestRestoreBuildSourceMatchesNewEngine: a restore-mode engine's random
// stream continues where NewEngine's does after its Xavier draws —
// compared on the next 10 000 outputs — and it has built no network.
func TestRestoreBuildSourceMatchesNewEngine(t *testing.T) {
	noFrame := func() (replay.Frame, error) { return nil, fmt.Errorf("no frame") }
	noop := func([]float64) error { return nil }
	for _, sh := range restoreShapes {
		cfg := shapeConfig(t, sh.width, sh.ticks, sh.tunables)
		fresh, err := NewEngine(cfg, noFrame, noop)
		if err != nil {
			t.Fatal(err)
		}
		restoring, err := newEngine(cfg, noFrame, noop, true)
		if err != nil {
			t.Fatal(err)
		}
		if restoring.agent != nil {
			t.Fatalf("%+v: the restore-mode build made a network", sh)
		}
		for i := 0; i < 10_000; i++ {
			if g, w := restoring.rng.Uint64(), fresh.rng.Uint64(); g != w {
				t.Fatalf("%+v: output %d after the build is %#x, NewEngine's %#x", sh, i, g, w)
			}
		}
	}
}

// BenchmarkEngineSource holds a draw through engineSource to math/rand's
// cost, and times the skip past the rig network's Xavier draws.
func BenchmarkEngineSource(b *testing.B) {
	sources := []struct {
		name string
		src  func() rand.Source
	}{
		{"engine", func() rand.Source { return newEngineSource(1) }},
		{"math", func() rand.Source { return rand.NewSource(1) }},
	}
	for _, s := range sources {
		b.Run("Float64/"+s.name, func(b *testing.B) {
			r := rand.New(s.src())
			for i := 0; i < b.N; i++ {
				r.Float64()
			}
		})
		b.Run("Intn/"+s.name, func(b *testing.B) {
			r := rand.New(s.src())
			for i := 0; i < b.N; i++ {
				r.Intn(5)
			}
		})
	}
	b.Run("SkipFloat64/rig", func(b *testing.B) {
		s := newEngineSource(1)
		for i := 0; i < b.N; i++ {
			s.SkipFloat64(2*500*500 + 500*5)
		}
	})
}
