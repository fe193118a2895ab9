package tensor

import "math"

// Vector helpers. Vectors are plain []E; these free functions keep the
// statistics and observation-assembly code out of hand-rolled loops.
// The element type is inferred from the arguments, so float64 call sites
// read exactly as they did before the package went generic.

// Sum returns Σ aᵢ.
func Sum[E Element](a []E) E {
	var s E
	for _, v := range a {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of a, or 0 for an empty slice.
func Mean[E Element](a []E) E {
	if len(a) == 0 {
		return 0
	}
	return Sum(a) / E(len(a))
}

// ArgMax returns the index of the largest element (first on ties).
// Panics on an empty slice.
func ArgMax[E Element](a []E) int {
	if len(a) == 0 {
		panic("tensor: ArgMax of empty slice")
	}
	best, bi := E(math.Inf(-1)), 0
	for i, v := range a {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Clamp returns v limited to [lo, hi].
func Clamp[E Element](v, lo, hi E) E {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
