package capes

import "math/rand"

// The engine's random source. Xavier init, ε-greedy and minibatch
// sampling all draw from one *rand.Rand built on engineSource, which
// yields the stream of rand.NewSource(seed) bit for bit: every seeded
// trajectory is the one math/rand gives. What it adds is SkipFloat64,
// which moves the stream past the Xavier draws of a network that a
// restore is about to overwrite without computing them (see BootEngine).
//
// math/rand's source is an additive lagged-Fibonacci generator over
// uint64: output n is output n−607 plus output n−273. engineSource takes
// the first 607 outputs from rand.NewSource itself — so it needs no copy
// of math/rand's seeding table — and runs the recurrence a whole block of
// 607 outputs at a time, so a draw is a load and a cursor step. Its state
// is those 607 words and the cursor.
const (
	rngLen = 607 // the recurrence's long lag: one block of outputs
	rngTap = 273 // the short lag

	int63Mask = 1<<63 - 1
	// float64Retry is the least Int63 that rand.Rand.Float64 draws again
	// for: float64(x)/2⁶³ rounds to 1 exactly when x ≥ 2⁶³ − 512.
	float64Retry = 1<<63 - 512
)

// engineSource is a rand.Source64 equal to rand.NewSource(seed).
type engineSource struct {
	// pos leads: a draw reads and writes it, and at the end of the
	// struct it cost about 10 % per draw on x86-64.
	pos uint           // the next output's index in vec; rngLen once the block is used up
	vec [rngLen]uint64 // a block of outputs
}

var _ rand.Source64 = (*engineSource)(nil)

func newEngineSource(seed int64) *engineSource {
	s := new(engineSource)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at rand.NewSource(seed)'s first output.
func (s *engineSource) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range s.vec {
		s.vec[i] = src.Uint64()
	}
	s.pos = 0
}

// Uint64 returns the next output.
func (s *engineSource) Uint64() uint64 {
	i := s.pos
	if i >= rngLen {
		return s.nextBlock()
	}
	s.pos++
	return s.vec[i]
}

// nextBlock refills the block and returns its first output. It stays
// out of line so that Uint64 inlines into Int63, as math/rand's does.
//
//go:noinline
func (s *engineSource) nextBlock() uint64 {
	s.refill()
	s.pos = 1
	return s.vec[0]
}

// Int63 returns the next output without its top bit, as math/rand's
// source does.
func (s *engineSource) Int63() int64 { return int64(s.Uint64() & int63Mask) }

// refill replaces the used-up block with the next one in place. For
// k < 273 the lag-273 term is in the old block at k+334, which the loop
// has not overwritten yet; from k = 273 on it is the new value at k−273.
func (s *engineSource) refill() {
	v := &s.vec
	for k := 0; k < rngTap; k++ {
		v[k] += v[k+rngLen-rngTap]
	}
	for k := rngTap; k < rngLen; k++ {
		v[k] += v[k-rngTap]
	}
	s.pos = 0
}

// SkipFloat64 moves the stream past n rand.Rand.Float64 calls without
// computing them: one output per call, plus one for each output that
// Float64 would have drawn again.
func (s *engineSource) SkipFloat64(n int) {
	for n > 0 {
		if s.pos >= rngLen {
			s.refill()
		}
		end := min(s.pos+uint(n), rngLen)
		n -= int(end-s.pos) - float64Retries(s.vec[s.pos:end])
		s.pos = end
	}
}

// float64Retries counts the outputs in b that Float64 would draw again
// for. x&int63Mask + (2⁶³ − float64Retry) carries into bit 63 exactly
// when x&int63Mask ≥ float64Retry, and cannot overflow since
// x&int63Mask < 2⁶³; summing that bit keeps the loop free of a
// per-output compare chained through the count.
func float64Retries(b []uint64) int {
	var n uint64
	for _, x := range b {
		n += (x&int63Mask + (1<<63 - float64Retry)) >> 63
	}
	return int(n)
}
