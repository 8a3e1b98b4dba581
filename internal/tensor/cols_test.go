package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

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

// TestMatMulColsInto checks that assembling a product from per-slice
// column-window multiplies is bit-for-bit identical to the full-width
// kernels — the equality the tensor-parallel sharded plans rely on.
func TestMatMulColsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const rows, n, cols = 5, 16, 12
	a := New(rows, n)
	b := New(n, cols)
	a.FillRandom(rng, 1)
	b.FillRandom(rng, 1)
	want := MatMul(a, b)

	for _, shards := range []int{1, 2, 3, 4} {
		got := New(rows, cols)
		for i := range got.Data {
			got.Data[i] = 99 // verify windows are fully overwritten
		}
		per := (cols + shards - 1) / shards
		for s := 0; s < shards; s++ {
			lo := s * per
			hi := min(lo+per, cols)
			if lo >= hi {
				continue
			}
			// Column slice of b, copied the way a shard holds its weights.
			bs := New(n, hi-lo)
			for r := 0; r < n; r++ {
				copy(bs.Row(r), b.Row(r)[lo:hi])
			}
			MatMulColsInto(got, lo, a, bs)
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("shards=%d: element %d = %v, want %v (not bit-for-bit)",
					shards, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestAddRowVectorCols(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const rows, cols = 4, 10
	m := New(rows, cols)
	m.FillRandom(rng, 1)
	v := make([]float32, cols)
	for i := range v {
		v[i] = rng.Float32()
	}
	want := m.Clone()
	AddRowVector(want, v)

	got := m.Clone()
	AddRowVectorCols(got, 0, v[:6])
	AddRowVectorCols(got, 6, v[6:])
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestAddInPlaceCols(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const rows, cols = 3, 8
	m := New(rows, cols)
	m.FillRandom(rng, 1)
	addend := New(rows, 3)
	addend.FillRandom(rng, 1)

	want := m.Clone()
	for i := 0; i < rows; i++ {
		for j := 0; j < 3; j++ {
			want.Data[i*cols+2+j] += addend.At(i, j)
		}
	}
	got := m.Clone()
	AddInPlaceCols(got, 2, addend)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("AddInPlaceCols element %d = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestColWindowPanics(t *testing.T) {
	m := New(2, 4)
	for name, fn := range map[string]func(){
		"matmul out of range": func() { MatMulColsInto(m, 3, New(2, 2), New(2, 2)) },
		"bias out of range":   func() { AddRowVectorCols(m, 3, []float32{1, 1}) },
		"negative window":     func() { AddRowVectorCols(m, -1, []float32{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
