package tensor

import "math"

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
