// Package tensor implements the dense matrix and vector math that backs
// the neural-network code in internal/nn. It replaces the role
// TensorFlow played in the original CAPES prototype: plain row-major
// matrices, matrix multiplication (with transposed variants so backprop
// never materializes explicit transposes), elementwise kernels, and
// Xavier/Glorot random initialization.
//
// The whole package is generic over the element type E ~float32|~float64
// (the Element constraint). The DQN hot path instantiates at float32 —
// the train step is memory-bandwidth-bound in situ, so halving the
// element size is the single biggest lever on step latency — while the
// golden-reference kernels and the statistics helpers default to
// float64. Reductions that feed stability decisions (norms, finiteness
// checks, loss sums) always accumulate in float64 regardless of E, so a
// float32 instantiation cannot silently lose a divergence signal.
//
// The package is deliberately small and allocation-conscious: every
// operation has an "into destination" form so the training loop can reuse
// buffers across steps.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"unsafe"
)

// Element constrains the numeric element types the package supports.
type Element interface {
	~float32 | ~float64
}

// ElemSize returns the in-memory size of one element of E in bytes.
func ElemSize[E Element]() int {
	var z E
	return int(unsafe.Sizeof(z))
}

// Sqrt returns √x in the element type (compiles to the native sqrt
// instruction for both precisions).
func Sqrt[E Element](x E) E { return E(math.Sqrt(float64(x))) }

// Tanh returns tanh(x), computed in float64 for accuracy and rounded to E.
func Tanh[E Element](x E) E { return E(math.Tanh(float64(x))) }

// IsFinite reports whether x is neither NaN nor ±Inf.
func IsFinite[E Element](x E) bool {
	f := float64(x)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// Convert copies src into dst elementwise, rounding or widening as
// needed. Lengths must match. This is the one sanctioned precision
// boundary: a cross-precision copy converts exactly once, directly into
// the destination buffer, never through an intermediate float64 slice.
func Convert[D, S Element](dst []D, src []S) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Convert length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = D(v)
	}
}

// Matrix is a dense row-major matrix of E.
type Matrix[E Element] struct {
	Rows, Cols int
	Data       []E // len == Rows*Cols, row-major
}

// New returns a zeroed rows×cols matrix.
func New[E Element](rows, cols int) *Matrix[E] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %d×%d", rows, cols))
	}
	return &Matrix[E]{Rows: rows, Cols: cols, Data: make([]E, rows*cols)}
}

// FromSlice wraps data (row-major) in a rows×cols matrix without copying.
func FromSlice[E Element](rows, cols int, data []E) *Matrix[E] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %d×%d", len(data), rows, cols))
	}
	return &Matrix[E]{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix[E]) At(i, j int) E {
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix[E]) Set(i, j int, v E) {
	m.Data[i*m.Cols+j] = v
}

// Row returns the i-th row as a slice sharing storage with m.
func (m *Matrix[E]) Row(i int) []E {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Zero resets every element to 0.
func (m *Matrix[E]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

func dimErr[E Element](op string, a, b *Matrix[E]) string {
	return fmt.Sprintf("tensor: %s dimension mismatch %d×%d vs %d×%d", op, a.Rows, a.Cols, b.Rows, b.Cols)
}

// AddRowVector adds the 1×Cols row vector v to every row of m in place.
// Used to apply layer biases to a whole minibatch.
func (m *Matrix[E]) AddRowVector(v []E) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector len %d for %d cols", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range v {
			row[j] += b
		}
	}
}

// ColSumsInto writes the per-column sums of m into dst (len m.Cols).
// Used to accumulate bias gradients over a minibatch.
func (m *Matrix[E]) ColSumsInto(dst []E) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSums dst len %d for %d cols", len(dst), m.Cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// MaxPerRowInto writes, for each row, the maximum value and its column
// index into caller-owned slices (each of len m.Rows): argmax_a Q(s,a)
// for a whole minibatch at once, allocation-free.
func (m *Matrix[E]) MaxPerRowInto(vals []E, idx []int) {
	if len(vals) != m.Rows || len(idx) != m.Rows {
		panic(fmt.Sprintf("tensor: MaxPerRowInto got len %d/%d for %d rows", len(vals), len(idx), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bi := E(math.Inf(-1)), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		vals[i], idx[i] = best, bi
	}
}

// XavierFill initializes m with the Glorot/Xavier uniform distribution
// U(−√(6/(fanIn+fanOut)), +√(6/(fanIn+fanOut))), the standard choice for
// tanh MLPs such as the CAPES Q-network.
func (m *Matrix[E]) XavierFill(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = E((rng.Float64()*2 - 1) * limit)
	}
}

// ErrNonFinite is the error that the training divergence guards wrap
// when they find NaN/Inf.
var ErrNonFinite = errors.New("tensor: non-finite value")

// String renders small matrices for debugging.
func (m *Matrix[E]) String() string {
	s := fmt.Sprintf("Matrix(%d×%d)[", m.Rows, m.Cols)
	limit := 8
	for i, v := range m.Data {
		if i == limit {
			s += " …"
			break
		}
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", float64(v))
	}
	return s + "]"
}
