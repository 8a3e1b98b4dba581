// Package tensor implements dense float32 matrices and the matrix-multiply
// variants the paper benchmarks (naive, blocked, parallel). It is the
// numeric substrate for every layer implementation and for the workloads
// fed to the IPU and GPU machine models.
//
// Matrices are row-major and sized dynamically. float32 is used throughout
// to match the FP32 arithmetic of the paper's experiments.
package tensor

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor/microkernel"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zero-initialized rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (row-major, length rows*cols) in a Matrix without
// copying. The caller must not alias data in conflicting ways.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (no copy).
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// NumElements returns rows*cols.
func (m *Matrix) NumElements() int { return m.Rows * m.Cols }

// Zero resets all elements to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// FillRandom fills the matrix with uniform values in [-scale, scale] drawn
// from rng. Deterministic given the rng seed.
func (m *Matrix) FillRandom(rng *rand.Rand, scale float32) {
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * scale
	}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	TransposeInto(out, m)
	return out
}

// TransposeInto writes mᵀ into dst (shape Cols×Rows, fully overwritten).
// dst must not alias m.
func TransposeInto(dst, m *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto dst %dx%d for src %dx%d", dst.Rows, dst.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		base := i * m.Cols
		for j := 0; j < m.Cols; j++ {
			dst.Data[j*dst.Cols+i] = m.Data[base+j]
		}
	}
}

// Add returns a + b. Panics on shape mismatch.
func Add(a, b *Matrix) *Matrix {
	checkSameShape("Add", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace accumulates b into a. Panics on shape mismatch.
func AddInPlace(a, b *Matrix) {
	checkSameShape("AddInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Sub returns a - b. Panics on shape mismatch.
func Sub(a, b *Matrix) *Matrix {
	checkSameShape("Sub", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// AddRowVector adds vector v (len == Cols) to every row of m in place.
// This is the bias-add of a linear layer.
func AddRowVector(m *Matrix, v []float32) { AddRowVectorInto(m, m, v) }

// AddRowVectorInto writes m + v (broadcast over rows) into dst. dst may be
// m itself (the in-place bias add) or a distinct same-shape matrix.
func AddRowVectorInto(dst, m *Matrix, v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector length %d != cols %d", len(v), m.Cols))
	}
	checkSameShape("AddRowVectorInto", dst, m)
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		row := dst.Row(i)
		for j := range row {
			row[j] = src[j] + v[j]
		}
	}
}

// ColSums returns the per-column sums of m (used for bias gradients).
func ColSums(m *Matrix) []float32 {
	out := make([]float32, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// MaxAbsDiff returns the largest absolute element-wise difference.
func MaxAbsDiff(a, b *Matrix) float64 {
	checkSameShape("MaxAbsDiff", a, b)
	maxd := 0.0
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// FrobeniusNorm returns sqrt(sum of squared elements).
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// AlmostEqual reports whether all elements differ by at most tol.
func AlmostEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	return MaxAbsDiff(a, b) <= tol
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func checkMulShapes(a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MatMulFlops returns the floating-point operation count of an
// (m×n)·(n×k) multiply under the usual 2·m·n·k convention.
func MatMulFlops(m, n, k int) float64 { return 2 * float64(m) * float64(n) * float64(k) }

// MatMul computes a·b in ikj order: each output row adds the rows of b
// scaled by that row of a, p ascending, passing over zero entries of a
// (matMulRows). That chain is the reference every dense kernel is held
// to.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes a·b into dst (shape a.Rows×b.Cols), overwriting any
// previous contents. dst must not alias a or b. This is the
// destination-passing form the compiled inference plans execute through.
func MatMulInto(dst, a, b *Matrix) {
	checkMulShapes(a, b)
	checkIntoShape("MatMulInto", dst, a.Rows, b.Cols)
	dst.Zero()
	matMulRows(a, b, dst, 0, a.Rows)
}

func checkIntoShape(op string, dst *Matrix, rows, cols int) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s dst %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

// MatMulParallel computes a·b splitting rows of a across GOMAXPROCS
// goroutines. Used by the training loop to keep host-side epochs fast.
func MatMulParallel(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulParallelInto(out, a, b)
	return out
}

// MatMulParallelInto is MatMulParallel writing into caller-owned dst
// (shape a.Rows×b.Cols, overwritten). The row partition makes every output
// element the work of exactly one goroutine, so the result is bit-identical
// to the serial kernel. dst must not alias a or b.
func MatMulParallelInto(dst, a, b *Matrix) {
	checkMulShapes(a, b)
	checkIntoShape("MatMulParallelInto", dst, a.Rows, b.Cols)
	dst.Zero()
	ParallelRows(a.Rows, a.Rows*a.Cols*b.Cols, [3]*Matrix{a, b, dst}, func(m [3]*Matrix, lo, hi int) {
		matMulRows(m[0], m[1], m[2], lo, hi)
	})
}

// matMulRows accumulates rows [lo, hi) of a·b into out: each output
// row is one microkernel.AccRow over the rows of b, p ascending, with
// the terms where a[i][p] is ±0 skipped. The skip is this loop's
// reference semantic: it keeps the sign of an exact zero, and it passes
// over a ReLU's zeros in the dense head's products.
func matMulRows(a, b, out *Matrix, lo, hi int) {
	n, k := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		microkernel.AccRow(out.Row(i), a.Row(i), 1, b.Data, k, n, k, true)
	}
}

// checkColWindow validates that columns [lo, lo+w) lie inside dst.
func checkColWindow(op string, dst *Matrix, lo, w int) {
	if lo < 0 || w < 0 || lo+w > dst.Cols {
		panic(fmt.Sprintf("tensor: %s column window [%d,%d) outside %d cols", op, lo, lo+w, dst.Cols))
	}
}
