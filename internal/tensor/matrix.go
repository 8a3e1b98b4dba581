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

// Shape returns (rows, cols).
func (m *Matrix) Shape() (int, int) { return m.Rows, m.Cols }

// NumElements returns rows*cols.
func (m *Matrix) NumElements() int { return m.Rows * m.Cols }

// SizeBytes returns the footprint of the payload in bytes (4 per element).
func (m *Matrix) SizeBytes() int { return 4 * m.NumElements() }

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

// Scale returns s*m as a new matrix.
func Scale(m *Matrix, s float32) *Matrix {
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] * s
	}
	return out
}

// ScaleInPlace multiplies every element of m by s.
func ScaleInPlace(m *Matrix, s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
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

// MatMul computes a·b with the straightforward triple loop (ikj order for
// cache-friendly row access). This is the reference implementation.
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

// DefaultBlock is the cache-blocking tile edge used by MatMulBlocked.
const DefaultBlock = 64

// MatMulBlocked computes a·b with square cache blocking (tile edge bs; pass
// 0 for DefaultBlock). Mirrors the "IPU blocked" / "GPU shmem" kernels.
func MatMulBlocked(a, b *Matrix, bs int) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulBlockedInto(out, a, b, bs)
	return out
}

// MatMulBlockedInto is MatMulBlocked writing into caller-owned dst
// (shape a.Rows×b.Cols, overwritten). dst must not alias a or b.
func MatMulBlockedInto(dst, a, b *Matrix, bs int) {
	checkMulShapes(a, b)
	checkIntoShape("MatMulBlockedInto", dst, a.Rows, b.Cols)
	if bs <= 0 {
		bs = DefaultBlock
	}
	dst.Zero()
	out := dst
	m, n, k := a.Rows, a.Cols, b.Cols
	for ii := 0; ii < m; ii += bs {
		iMax := min(ii+bs, m)
		for pp := 0; pp < n; pp += bs {
			pMax := min(pp+bs, n)
			for jj := 0; jj < k; jj += bs {
				jMax := min(jj+bs, k)
				for i := ii; i < iMax; i++ {
					arow := a.Row(i)
					orow := out.Row(i)
					for p := pp; p < pMax; p++ {
						av := arow[p]
						if av == 0 {
							continue
						}
						brow := b.Data[p*k : (p+1)*k]
						for j := jj; j < jMax; j++ {
							orow[j] += av * brow[j]
						}
					}
				}
			}
		}
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

func matMulRows(a, b, out *Matrix, lo, hi int) {
	n, k := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for p := 0; p < n; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*k : (p+1)*k]
			for j := 0; j < k; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// checkColWindow validates that columns [lo, lo+w) lie inside dst.
func checkColWindow(op string, dst *Matrix, lo, w int) {
	if lo < 0 || w < 0 || lo+w > dst.Cols {
		panic(fmt.Sprintf("tensor: %s column window [%d,%d) outside %d cols", op, lo, lo+w, dst.Cols))
	}
}

// MatMulColsInto computes a·b into the column window [dstLo, dstLo+b.Cols)
// of dst (dst.Rows == a.Rows, dst may be wider than the product). Every
// element of the window is produced by the same p-ordered accumulation as
// MatMulInto over a full-width b, so writing a column slice of the weight
// through this kernel is bit-for-bit equal to slicing the full product —
// the contract the tensor-parallel sharded plans are built on. Columns
// outside the window are untouched. dst must not alias a or b.
func MatMulColsInto(dst *Matrix, dstLo int, a, b *Matrix) {
	checkMulShapes(a, b)
	if dst.Rows != a.Rows {
		panic(fmt.Sprintf("tensor: MatMulColsInto dst rows %d != %d", dst.Rows, a.Rows))
	}
	checkColWindow("MatMulColsInto", dst, dstLo, b.Cols)
	n, k, w := a.Cols, dst.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Data[i*k+dstLo : i*k+dstLo+w]
		for j := range orow {
			orow[j] = 0
		}
		for p := 0; p < n; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*w : (p+1)*w]
			for j := 0; j < w; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// AddRowVectorCols adds v to every row of m at columns [lo, lo+len(v)) in
// place — the bias add of one shard's column slice.
func AddRowVectorCols(m *Matrix, lo int, v []float32) {
	checkColWindow("AddRowVectorCols", m, lo, len(v))
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols+lo : i*m.Cols+lo+len(v)]
		for j := range row {
			row[j] += v[j]
		}
	}
}

// TransposeIntoCols writes mᵀ into the column window [dstLo, dstLo+m.Rows)
// of dst (dst.Rows == m.Cols). The sharded pixelfly step uses it to land
// its slice of a feature-major product back into the batch-major
// activation arena. dst must not alias m.
func TransposeIntoCols(dst *Matrix, dstLo int, m *Matrix) {
	if dst.Rows != m.Cols {
		panic(fmt.Sprintf("tensor: TransposeIntoCols dst rows %d != src cols %d", dst.Rows, m.Cols))
	}
	checkColWindow("TransposeIntoCols", dst, dstLo, m.Rows)
	for i := 0; i < m.Rows; i++ {
		base := i * m.Cols
		for j := 0; j < m.Cols; j++ {
			dst.Data[j*dst.Cols+dstLo+i] = m.Data[base+j]
		}
	}
}

// AddInPlaceCols accumulates src (a.Rows×src.Cols) into the column window
// [lo, lo+src.Cols) of dst.
func AddInPlaceCols(dst *Matrix, lo int, src *Matrix) {
	if dst.Rows != src.Rows {
		panic(fmt.Sprintf("tensor: AddInPlaceCols rows %d != %d", dst.Rows, src.Rows))
	}
	checkColWindow("AddInPlaceCols", dst, lo, src.Cols)
	for i := 0; i < src.Rows; i++ {
		row := dst.Data[i*dst.Cols+lo : i*dst.Cols+lo+src.Cols]
		s := src.Row(i)
		for j := range row {
			row[j] += s[j]
		}
	}
}

// CopyCols copies columns [srcLo, srcLo+w) of src into columns
// [dstLo, dstLo+w) of dst (same row count).
func CopyCols(dst *Matrix, dstLo int, src *Matrix, srcLo, w int) {
	if dst.Rows != src.Rows {
		panic(fmt.Sprintf("tensor: CopyCols rows %d != %d", dst.Rows, src.Rows))
	}
	checkColWindow("CopyCols dst", dst, dstLo, w)
	checkColWindow("CopyCols src", src, srcLo, w)
	for i := 0; i < src.Rows; i++ {
		copy(dst.Data[i*dst.Cols+dstLo:i*dst.Cols+dstLo+w],
			src.Data[i*src.Cols+srcLo:i*src.Cols+srcLo+w])
	}
}

// MulVec computes m·x for a column vector x (len == Cols).
func (m *Matrix) MulVec(x []float32) []float32 {
	out := make([]float32, m.Rows)
	m.MulVecInto(out, x)
	return out
}

// MulVecInto computes m·x into dst (len == Rows, fully overwritten).
func (m *Matrix) MulVecInto(dst, x []float32) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVec length %d != cols %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MulVecInto dst length %d != rows %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float32
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}
