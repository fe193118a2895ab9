package nn

import (
	"fmt"

	"capes/internal/tensor"
)

// Gradient-arena exchange for data-parallel cluster training. The flat
// param/grad arenas (see MLP.FlatParams/FlatGrads) make an all-reduce a
// single contiguous []float32 exchange: followers put their gradient
// arena on the wire as it lies, the leader reduces the frames in a fixed
// rank order, in float64, into its own gradient arena, and the mean goes
// back out for every worker's fused Adam sweep.
//
// The reduction contract, per element: start from +0.0, add each rank's
// value widened to float64 in ascending rank order, divide by the worker
// count, round once to the working precision. Float64 on purpose, and
// for two reasons:
//
//   - determinism: float addition is not associative, so the reduction
//     runs in rank order — but float64 goes further: sums of float32
//     gradients are *exact* in float64 up to ~2^29 worker terms, so the
//     mean is independent of how the same multiset of frames is grouped;
//   - fidelity: N workers feeding identical minibatches produce a mean
//     bit-identical to any single worker's gradient (Σ g / N round-trips
//     through float64 exactly), which is what lets the cluster
//     determinism suite diff an N-worker trajectory against the
//     single-process golden run bit for bit.
//
// ReduceMean is that contract in one pass; AccumulateFlat into a zeroed
// accumulator followed by a division is the same contract spelled out a
// sweep at a time, kept as the reference ReduceMean is tested against.

// reduceBlock is how many elements ReduceMean carries in float64 at a
// time: 4 KiB of stack, so the partial sums stay in L1 however many
// ranks are swept over them.
const reduceBlock = 512

// ReduceMean overwrites dst with the element-wise mean of srcs under the
// reduction contract above, srcs in ascending rank order. A source may be
// dst itself: the leader's own gradient is rank 0 and the mean lands
// where it lay.
func ReduceMean[E tensor.Element](dst []E, srcs [][]E) {
	if len(srcs) == 0 {
		panic("nn: mean over 0 workers")
	}
	for _, src := range srcs {
		if len(src) != len(dst) {
			panic(fmt.Sprintf("nn: reduce %d grads into %d-slot arena", len(src), len(dst)))
		}
	}
	// All ranks but the last are summed into a block of float64 partial
	// sums; the last rank's addition rides the sweep that divides and
	// rounds.
	lead, last := srcs[:len(srcs)-1], srcs[len(srcs)-1]
	var acc [reduceBlock]float64
	for off := 0; off < len(dst); off += reduceBlock {
		out := dst[off:min(off+reduceBlock, len(dst))]
		sum := acc[:len(out)]
		if len(lead) == 0 {
			clear(sum)
		}
		for r, src := range lead {
			widenSum(sum, src[off:][:len(sum)], r == 0)
		}
		widenMean(out, sum, last[off:][:len(sum)], len(srcs))
	}
}

// widenSum adds src into the partial sums, from +0.0 when first (0 + x
// is spelled out: the sum starts from +0.0, so a lone −0 comes out +0).
// float32 arenas run tensor's vector sweep, which is the same loop.
func widenSum[E tensor.Element](sum []float64, src []E, first bool) {
	if s32, ok := any(src).([]float32); ok {
		tensor.WidenSum32(sum, s32, first)
		return
	}
	if first {
		for i, v := range src {
			sum[i] = 0 + float64(v)
		}
		return
	}
	for i, v := range src {
		sum[i] += float64(v)
	}
}

// widenMean writes out = (sum + tail) / k, rounded once. Dividing by a
// power of two and multiplying by its (exact) reciprocal are the same
// correctly rounded value; for any other count only the division is the
// contract. float32 arenas run tensor's vector sweep, which is the same
// loop.
func widenMean[E tensor.Element](out []E, sum []float64, tail []E, k int) {
	if o32, ok := any(out).([]float32); ok {
		tensor.WidenMean32(o32, sum, any(tail).([]float32), k)
		return
	}
	if k&(k-1) == 0 {
		inv := 1 / float64(k)
		for i, v := range sum {
			out[i] = E((v + float64(tail[i])) * inv)
		}
		return
	}
	for i, v := range sum {
		out[i] = E((v + float64(tail[i])) / float64(k))
	}
}

// AccumulateFlat adds src element-wise into the float64 accumulator.
// Exact for float32 sources (each term widens losslessly).
func AccumulateFlat[E tensor.Element](acc []float64, src []E) {
	if len(acc) != len(src) {
		panic(fmt.Sprintf("nn: accumulate %d grads into %d-slot accumulator", len(src), len(acc)))
	}
	for i, v := range src {
		acc[i] += float64(v)
	}
}

// ExportFlat converts a flat arena to float32, the precision arenas have
// on the wire (a straight copy at the engine precision; a float64
// reference agent rounds once per element). dst is resized as needed and
// returned.
func ExportFlat[E tensor.Element](dst []float32, src []E) []float32 {
	if cap(dst) < len(src) {
		dst = make([]float32, len(src))
	}
	dst = dst[:len(src)]
	tensor.Convert(dst, src)
	return dst
}
