package sparse

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/tensor/microkernel"
)

// The three products of a block-sparse layer y = x·Wᵀ, batch-major like
// the rest of the stack (one sample per row of x, y, dY and dX), each a
// loop of microkernel.AccRow calls over the stored blocks in RowPtr
// order:
//
//   - MulInto, the forward product: y[s, R:R+bs] += x[s, C:C+bs]·blkᵀ,
//     over the block stored transposed;
//   - InputGradInto, the input gradient: dX[s, C:C+bs] += dY[s, R:R+bs]·blk,
//     over a row-major copy of the blocks (TransposeBlocks);
//   - AccumulateOuter, the weight gradient: entry (r, c) of a block adds
//     lr·Σ_s dY[s, R+r]·x[s, C+c].
//
// Structural sparsity lives at block granularity: absent blocks are
// never visited. A stored block is dense by construction, so the kernels
// keep no per-scalar zero skip. Every element is summed from +0 in
// MulDense's order (blocks in RowPtr order, then c or r ascending, as
// sequential float32 adds), and a sum from +0 is never −0, so leaving
// the skip out changes no bit for finite inputs. The one difference: a
// stored exact zero times ±Inf or NaN gives NaN here, where MulDense
// skips the zero.

// MulInto writes act(x·Wᵀ + bias) for the block rows [br0, br1) of W
// (the receiver) into the column window [lo, lo+(br1-br0)·BlockSize) of
// dst, with x batch-major (rows×Cols) and dst rows×anything. Columns
// outside the window are untouched. bias is window-relative and may be
// nil; a nil bias with ActNone is the plain product. Each window row of
// a block row is finished with the bias and activation as soon as its
// sums are complete, with the chain of a separate sweep. It is the one
// forward kernel: pixelfly's ApplyInto runs it over every block row,
// its training Forward splits the block rows across GOMAXPROCS, and a
// tensor-parallel shard runs its own block rows into its output columns.
// dst must not alias x.
func (b *BSR) MulInto(dst *tensor.Matrix, lo int, x *tensor.Matrix, br0, br1 int, bias []float32, act tensor.Activation) {
	if b.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: BSR MulInto shape mismatch %dx%d · (%dx%d)ᵀ", x.Rows, x.Cols, b.Rows, b.Cols))
	}
	if br0 < 0 || br1 < br0 || br1 > b.BlockRows {
		panic(fmt.Sprintf("sparse: BSR block-row window [%d,%d) outside %d block rows", br0, br1, b.BlockRows))
	}
	bs := b.BlockSize
	w := (br1 - br0) * bs
	if dst.Rows != x.Rows || lo < 0 || lo+w > dst.Cols {
		panic(fmt.Sprintf("sparse: BSR MulInto window [%d,%d) does not fit %dx%d dst for %d rows", lo, lo+w, dst.Rows, dst.Cols, x.Rows))
	}
	if bias != nil && len(bias) != w {
		panic(fmt.Sprintf("sparse: BSR MulInto bias length %d != window width %d", len(bias), w))
	}
	if x.Rows == 0 {
		return
	}
	relu := act == tensor.ActReLU
	for bi := br0; bi < br1; bi++ {
		c0 := lo + (bi-br0)*bs
		for s := 0; s < x.Rows; s++ {
			clear(dst.Data[s*dst.Cols+c0 : s*dst.Cols+c0+bs])
		}
		for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
			blk := b.Block(int(p))
			xs := x.Data[int(b.ColIdx[p])*bs:]
			for s := 0; s < x.Rows; s++ {
				microkernel.AccRow(dst.Data[s*dst.Cols+c0:], xs[s*x.Cols:], 1, blk, bs, bs, bs, false)
			}
		}
		if bias != nil || relu {
			var bb []float32
			if bias != nil {
				bb = bias[c0-lo : c0-lo+bs]
			}
			for s := 0; s < x.Rows; s++ {
				microkernel.EpilogueRow(dst.Data[s*dst.Cols+c0:s*dst.Cols+c0+bs], bb, relu)
			}
		}
	}
}

// InputGradInto computes dY·W into dX (rows×Cols, overwritten), the
// input gradient of y = x·Wᵀ, with dY batch-major (rows×Rows). rowMajor
// holds the receiver's blocks in row-major order, as TransposeBlocks
// writes them. Samples are split across GOMAXPROCS workers
// (tensor.ParallelRows); each worker walks the blocks in RowPtr order
// over its samples, so every element sums its terms by ascending block
// row, then ascending row within the block, at any worker count. dX must
// not alias dY.
func (b *BSR) InputGradInto(dX, dY *tensor.Matrix, rowMajor []float32) {
	if dY.Cols != b.Rows || dX.Rows != dY.Rows || dX.Cols != b.Cols || len(rowMajor) != len(b.Blocks) {
		panic(fmt.Sprintf("sparse: BSR InputGradInto shape mismatch: dY %dx%d, dX %dx%d, %d row-major values for %dx%d with %d",
			dY.Rows, dY.Cols, dX.Rows, dX.Cols, len(rowMajor), b.Rows, b.Cols, len(b.Blocks)))
	}
	tensor.ParallelRows(dY.Rows, b.macs(dY.Rows), gradJob{b, dX, dY, rowMajor}, func(j gradJob, lo, hi int) {
		j.b.inputGradRows(j.dX, j.dY, j.rowMajor, lo, hi)
	})
}

// gradJob carries InputGradInto's operands to its workers.
type gradJob struct {
	b        *BSR
	dX, dY   *tensor.Matrix
	rowMajor []float32
}

// inputGradRows computes the samples [s0, s1) of InputGradInto.
func (b *BSR) inputGradRows(dX, dY *tensor.Matrix, rowMajor []float32, s0, s1 int) {
	if s0 == s1 {
		return
	}
	bs := b.BlockSize
	sz := bs * bs
	clear(dX.Data[s0*dX.Cols : s1*dX.Cols])
	for bi := 0; bi < b.BlockRows; bi++ {
		dy := dY.Data[bi*bs:]
		for p := int(b.RowPtr[bi]); p < int(b.RowPtr[bi+1]); p++ {
			blk := rowMajor[p*sz : p*sz+sz]
			col0 := int(b.ColIdx[p]) * bs
			for s := s0; s < s1; s++ {
				microkernel.AccRow(dX.Data[s*dX.Cols+col0:], dy[s*dY.Cols:], 1, blk, bs, bs, bs, false)
			}
		}
	}
}

// AccumulateOuter adds lr·dYᵀ·x into the stored blocks only, the weight
// gradient of y = x·Wᵀ, with dY (rows×Rows) and x (rows×Cols) both
// batch-major. Block rows are split across GOMAXPROCS workers; every
// stored entry is one dot product over the samples, summed in ascending
// order from zero, then added times lr, so the result does not depend
// on the worker count.
func (b *BSR) AccumulateOuter(dY, x *tensor.Matrix, lr float32) {
	if dY.Cols != b.Rows || x.Cols != b.Cols || dY.Rows != x.Rows {
		panic("sparse: AccumulateOuter shape mismatch")
	}
	if x.Rows == 0 {
		// No samples: each entry adds lr times an empty sum, as a dot
		// product from zero would.
		for i := range b.Blocks {
			b.Blocks[i] += lr * 0
		}
		return
	}
	tensor.ParallelRows(b.BlockRows, b.macs(dY.Rows), outerJob{b, dY, x, lr}, func(j outerJob, lo, hi int) {
		j.b.accumulateOuterRows(j.dY, j.x, j.lr, lo, hi)
	})
}

// outerJob carries AccumulateOuter's operands to its workers.
type outerJob struct {
	b     *BSR
	dY, x *tensor.Matrix
	lr    float32
}

// accumulateOuterRows adds lr·dYᵀ·x into the stored blocks of the block
// rows [br0, br1). Each column c of a block, one contiguous run in the
// blocks' transposed layout, sums in col: one microkernel.AccRow over the
// samples from zero, a = x's column C+c and b = dY's columns R…, both
// strided by their widths, and then each entry adds lr times its sum.
// col lives on the stack for blocks up to 64 wide.
func (b *BSR) accumulateOuterRows(dY, x *tensor.Matrix, lr float32, br0, br1 int) {
	bs := b.BlockSize
	var stack [64]float32
	col := stack[:min(bs, len(stack))]
	if bs > len(stack) {
		col = make([]float32, bs)
	}
	for bi := br0; bi < br1; bi++ {
		dy := dY.Data[bi*bs:]
		for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
			xs := x.Data[int(b.ColIdx[p])*bs:]
			blk := b.Block(int(p))
			for c := 0; c < bs; c++ {
				clear(col)
				microkernel.AccRow(col, xs[c:], x.Cols, dy, dY.Cols, x.Rows, bs, false)
				out := blk[c*bs : c*bs+bs]
				for i, v := range col {
					out[i] += lr * v
				}
			}
		}
	}
}

// macs is the multiply-add count of one product of b with rows samples:
// the work measure tensor.ParallelRows compares against its serial
// cutoff.
func (b *BSR) macs(rows int) int { return len(b.Blocks) * rows }
