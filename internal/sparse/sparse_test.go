package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestBSRBuildAndRoundTrip(t *testing.T) {
	pattern := [][2]int{{0, 0}, {0, 1}, {1, 1}, {2, 0}}
	b, err := NewBSR(12, 8, 4, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumBlocks() != 4 || b.BlockRows != 3 || b.BlockCols != 2 {
		t.Fatalf("unexpected BSR layout: %+v", b)
	}
	// Fill blocks with identifiable values.
	for n := 0; n < b.NumBlocks(); n++ {
		blk := b.Block(n)
		for i := range blk {
			blk[i] = float32(n + 1)
		}
	}
	d := b.ToDense()
	if d.At(0, 0) != 1 || d.At(0, 4) != 2 || d.At(4, 4) != 3 || d.At(8, 0) != 4 {
		t.Fatalf("block placement wrong")
	}
	if d.At(4, 0) != 0 {
		t.Fatal("absent block should be zero")
	}
}

func TestBSRRejectsBadShapes(t *testing.T) {
	if _, err := NewBSR(10, 8, 4, nil); err == nil {
		t.Fatal("expected error: rows not divisible by block size")
	}
	if _, err := NewBSR(8, 8, 0, nil); err == nil {
		t.Fatal("expected error: zero block size")
	}
	if _, err := NewBSR(8, 8, 4, [][2]int{{0, 0}, {0, 0}}); err == nil {
		t.Fatal("expected error: duplicate block")
	}
	if _, err := NewBSR(8, 8, 4, [][2]int{{5, 0}}); err == nil {
		t.Fatal("expected error: block out of grid")
	}
}

func TestBSRMulDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pattern := [][2]int{{0, 0}, {1, 2}, {2, 1}, {3, 3}, {0, 3}}
	b, err := NewBSR(16, 16, 4, pattern)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Blocks {
		b.Blocks[i] = rng.Float32()*2 - 1
	}
	x := tensor.New(16, 7)
	x.FillRandom(rng, 1)
	want := tensor.MatMul(b.ToDense(), x)
	got := b.MulDense(x)
	if !tensor.AlmostEqual(want, got, 1e-4) {
		t.Fatalf("BSR MulDense mismatch: %v", tensor.MaxAbsDiff(want, got))
	}
	// The batch-major kernels: y = x·Wᵀ and dX = dY·W, one sample per
	// row.
	xb := x.Transpose()
	gotB := tensor.New(7, 16)
	b.MulInto(gotB, 0, xb, 0, b.BlockRows, nil, tensor.ActNone)
	if wantB := tensor.MatMul(xb, b.ToDense().Transpose()); !tensor.AlmostEqual(wantB, gotB, 1e-4) {
		t.Fatalf("BSR MulInto mismatch: %v", tensor.MaxAbsDiff(wantB, gotB))
	}
	rowMajor := make([]float32, len(b.Blocks))
	b.TransposeBlocks(rowMajor)
	gotT := tensor.New(7, 16)
	b.InputGradInto(gotT, xb, rowMajor)
	if wantT := tensor.MatMul(xb, b.ToDense()); !tensor.AlmostEqual(wantT, gotT, 1e-4) {
		t.Fatalf("BSR InputGradInto mismatch: %v", tensor.MaxAbsDiff(wantT, gotT))
	}
}

func TestBSRAccumulateOuterMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pattern := [][2]int{{0, 1}, {1, 0}}
	b, err := NewBSR(8, 8, 4, pattern)
	if err != nil {
		t.Fatal(err)
	}
	dY := tensor.New(8, 5)
	dY.FillRandom(rng, 1)
	x := tensor.New(5, 8) // batch-major
	x.FillRandom(rng, 1)
	b.AccumulateOuter(dY.Transpose(), x, 1)
	// Dense gradient masked to the stored blocks.
	full := tensor.MatMul(dY, x)
	dense := b.ToDense()
	for bi := 0; bi < 2; bi++ {
		for bj := 0; bj < 2; bj++ {
			_, stored := b.BlockAt(bi, bj)
			for r := 0; r < 4; r++ {
				for c := 0; c < 4; c++ {
					want := float32(0)
					if stored {
						want = full.At(bi*4+r, bj*4+c)
					}
					got := dense.At(bi*4+r, bj*4+c)
					if diff := float64(want - got); diff > 1e-4 || diff < -1e-4 {
						t.Fatalf("block (%d,%d) entry (%d,%d): got %v want %v", bi, bj, r, c, got, want)
					}
				}
			}
		}
	}
}

func TestBSRFlops(t *testing.T) {
	b, err := NewBSR(8, 8, 4, [][2]int{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Flops(3); got != 2*2*16*3 {
		t.Fatalf("Flops = %v, want %v", got, 2*2*16*3)
	}
}

// TestBSRMulDenseRowsIntoMatchesFull checks MulInto over block-row
// windows, the kernel a tensor-parallel shard runs, against the full
// product bit for bit, at five samples and at one, and that it leaves
// the columns outside its window alone.
func TestBSRMulDenseRowsIntoMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pattern := [][2]int{{0, 0}, {0, 2}, {1, 1}, {2, 0}, {2, 3}, {3, 3}}
	b, err := NewBSR(16, 16, 4, pattern)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Blocks {
		b.Blocks[i] = rng.Float32()*2 - 1
	}
	const guard = 3
	for _, k := range []int{5, 1} {
		x := tensor.New(k, 16)
		x.FillRandom(rng, 1)
		full := b.MulDense(x.Transpose()).Transpose()

		for _, window := range [][2]int{{0, 4}, {0, 2}, {2, 4}, {1, 3}} {
			br0, br1 := window[0], window[1]
			w := (br1 - br0) * b.BlockSize
			out := tensor.New(k, w+2*guard)
			for i := range out.Data {
				out.Data[i] = -7
			}
			b.MulInto(out, guard, x, br0, br1, nil, tensor.ActNone)
			for r := 0; r < k; r++ {
				for c := 0; c < out.Cols; c++ {
					want := float32(-7)
					if c >= guard && c < guard+w {
						want = full.At(r, br0*b.BlockSize+c-guard)
					}
					if out.At(r, c) != want {
						t.Fatalf("k=%d window [%d,%d): (%d,%d) = %v, want %v (not bit-for-bit)",
							k, br0, br1, r, c, out.At(r, c), want)
					}
				}
			}
		}
	}
}

func TestBSRMulDenseRowsIntoPanics(t *testing.T) {
	b, err := NewBSR(8, 8, 4, [][2]int{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 8)
	for name, fn := range map[string]func(){
		"bad window":      func() { b.MulInto(tensor.New(2, 4), 0, x, 1, 3, nil, tensor.ActNone) },
		"bad dst cols":    func() { b.MulInto(tensor.New(2, 8), 1, x, 0, 2, nil, tensor.ActNone) },
		"bad dst rows":    func() { b.MulInto(tensor.New(3, 8), 0, x, 0, 2, nil, tensor.ActNone) },
		"bad bias":        func() { b.MulInto(tensor.New(2, 8), 0, x, 0, 1, make([]float32, 8), tensor.ActNone) },
		"bad x width":     func() { b.MulInto(tensor.New(2, 8), 0, tensor.New(2, 4), 0, 2, nil, tensor.ActNone) },
		"short row-major": func() { b.InputGradInto(tensor.New(2, 8), tensor.New(2, 8), make([]float32, 4)) },
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

// TestBSRMulDenseBiasActMatchesUnfused pins the fused block-sparse
// epilogue of MulInto (pixelfly's fused final stage without a low-rank
// term) to the unfused MulDense + bias broadcast + activation chain,
// bit-for-bit.
func TestBSRMulDenseBiasActMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pattern := [][2]int{{0, 0}, {0, 2}, {1, 1}, {2, 3}, {3, 0}, {3, 3}}
	b, err := NewBSR(16, 16, 4, pattern)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Blocks {
		b.Blocks[i] = rng.Float32()*2 - 1
	}
	x := tensor.New(5, 16)
	x.FillRandom(rng, 1)
	bias := make([]float32, 16)
	for i := range bias {
		bias[i] = rng.Float32()*2 - 1
	}

	ref := b.MulDense(x.Transpose()).Transpose()
	want := ref.Clone()
	for i := 0; i < want.Rows; i++ {
		row := want.Row(i)
		for j, v := range row {
			v += bias[j]
			if !(v > 0) {
				v = 0
			}
			row[j] = v
		}
	}
	got := tensor.New(5, 16)
	b.MulInto(got, 0, x, 0, b.BlockRows, bias, tensor.ActReLU)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("element %d differs: %g vs %g", i, want.Data[i], got.Data[i])
		}
	}

	// nil bias, no activation degenerates to MulDense exactly.
	plain := tensor.New(5, 16)
	b.MulInto(plain, 0, x, 0, b.BlockRows, nil, tensor.ActNone)
	for i := range ref.Data {
		if ref.Data[i] != plain.Data[i] {
			t.Fatalf("nil-epilogue element %d differs", i)
		}
	}
}

// TestFillRowMajor checks that FillRowMajor hands out values in logical
// row-major order within each block, blocks in RowPtr order.
func TestFillRowMajor(t *testing.T) {
	b, err := NewBSR(6, 9, 3, [][2]int{{1, 2}, {0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	next := float32(0)
	b.FillRowMajor(func() float32 { next++; return next })
	d := b.ToDense()
	for n, blk := range [][2]int{{0, 1}, {1, 0}, {1, 2}} { // RowPtr order
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				if got, want := d.At(blk[0]*3+r, blk[1]*3+c), float32(9*n+3*r+c+1); got != want {
					t.Fatalf("block %v entry (%d,%d) = %v, want %v", blk, r, c, got, want)
				}
			}
		}
	}
}

// TestTransposeBlocks checks the row-major copy against Block's
// transposed layout, at block sizes on and off the copy's tile edge.
func TestTransposeBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, bs := range []int{1, 3, 8, 13, 64} {
		b := holeyBSR(t, rng, 3, 4, bs)
		rowMajor := make([]float32, len(b.Blocks))
		b.TransposeBlocks(rowMajor)
		for n := 0; n < b.NumBlocks(); n++ {
			blk, rm := b.Block(n), rowMajor[n*bs*bs:(n+1)*bs*bs]
			for r := 0; r < bs; r++ {
				for c := 0; c < bs; c++ {
					if rm[r*bs+c] != blk[c*bs+r] {
						t.Fatalf("bs=%d block %d entry (%d,%d): %v, want %v", bs, n, r, c, rm[r*bs+c], blk[c*bs+r])
					}
				}
			}
		}
	}
}
