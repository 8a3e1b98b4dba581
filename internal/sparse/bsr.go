// Package sparse implements block compressed sparse row (BSR) storage,
// the format of pixelated butterfly's block-aligned weight patterns, with
// the block-sparse kernels its training and inference run.
package sparse

import (
	"fmt"

	"repro/internal/tensor"
)

// BSR is a block compressed sparse row matrix with square BlockSize×BlockSize
// dense blocks. It is the storage format of the pixelated-butterfly weight
// matrix: the butterfly connectivity decides *which* blocks exist, BSR holds
// their values.
type BSR struct {
	Rows, Cols int // logical element dimensions
	BlockSize  int
	BlockRows  int       // Rows / BlockSize
	BlockCols  int       // Cols / BlockSize
	RowPtr     []int32   // length BlockRows+1, indexes into ColIdx/Blocks
	ColIdx     []int32   // block-column index per stored block
	Blocks     []float32 // len(ColIdx) * BlockSize * BlockSize, row-major per block

	// Column index of the same pattern, for the transposed product:
	// colPtr (length BlockCols+1) indexes colRow/colBlk, which list each
	// block column's stored blocks by ascending block row — their block
	// row and their index into Blocks.
	colPtr, colRow, colBlk []int32
}

// NewBSR builds a BSR matrix from an explicit block pattern. pattern lists
// (blockRow, blockCol) pairs; duplicates are rejected. Block values start
// at zero.
func NewBSR(rows, cols, blockSize int, pattern [][2]int) (*BSR, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("sparse: block size %d must be positive", blockSize)
	}
	if rows%blockSize != 0 || cols%blockSize != 0 {
		return nil, fmt.Errorf("sparse: shape %dx%d not divisible by block size %d", rows, cols, blockSize)
	}
	br, bc := rows/blockSize, cols/blockSize
	seen := make(map[[2]int]bool, len(pattern))
	perRow := make([][]int, br)
	for _, p := range pattern {
		if p[0] < 0 || p[0] >= br || p[1] < 0 || p[1] >= bc {
			return nil, fmt.Errorf("sparse: block (%d,%d) out of %dx%d grid", p[0], p[1], br, bc)
		}
		if seen[p] {
			return nil, fmt.Errorf("sparse: duplicate block (%d,%d)", p[0], p[1])
		}
		seen[p] = true
		perRow[p[0]] = append(perRow[p[0]], p[1])
	}
	out := &BSR{Rows: rows, Cols: cols, BlockSize: blockSize, BlockRows: br, BlockCols: bc,
		RowPtr: make([]int32, br+1)}
	for i := 0; i < br; i++ {
		cols := perRow[i]
		sortInts(cols)
		for _, j := range cols {
			out.ColIdx = append(out.ColIdx, int32(j))
		}
		out.RowPtr[i+1] = int32(len(out.ColIdx))
	}
	out.Blocks = make([]float32, len(out.ColIdx)*blockSize*blockSize)
	out.colPtr = make([]int32, bc+1)
	for _, j := range out.ColIdx {
		out.colPtr[j+1]++
	}
	for j := 0; j < bc; j++ {
		out.colPtr[j+1] += out.colPtr[j]
	}
	out.colRow = make([]int32, len(out.ColIdx))
	out.colBlk = make([]int32, len(out.ColIdx))
	next := append([]int32(nil), out.colPtr[:bc]...)
	for i := 0; i < br; i++ {
		for p := out.RowPtr[i]; p < out.RowPtr[i+1]; p++ {
			j := out.ColIdx[p]
			out.colRow[next[j]], out.colBlk[next[j]] = int32(i), p
			next[j]++
		}
	}
	return out, nil
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// NumBlocks returns the number of stored blocks.
func (b *BSR) NumBlocks() int { return len(b.ColIdx) }

// Block returns the storage slice of the n-th stored block (row-major
// BlockSize×BlockSize view, mutable).
func (b *BSR) Block(n int) []float32 {
	sz := b.BlockSize * b.BlockSize
	return b.Blocks[n*sz : (n+1)*sz]
}

// ToDense materializes the matrix.
func (b *BSR) ToDense() *tensor.Matrix {
	out := tensor.New(b.Rows, b.Cols)
	bs := b.BlockSize
	for bi := 0; bi < b.BlockRows; bi++ {
		for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
			bj := int(b.ColIdx[p])
			blk := b.Block(int(p))
			for r := 0; r < bs; r++ {
				dst := out.Row(bi*bs + r)[bj*bs : bj*bs+bs]
				src := blk[r*bs : (r+1)*bs]
				for c := range src {
					dst[c] += src[c]
				}
			}
		}
	}
	return out
}

// MulDense computes b·x with x dense: (Rows×Cols)·(Cols×K). This is the
// block-sparse matmul that pixelfly's GPU implementation maps onto tensor
// cores; here it is the reference semantics for both machine models, the
// path of pixelfly's Apply, and the oracle the block-specialized kernels
// (MulDenseInto, MulDenseRowsInto, MulDenseParallel) are tested against.
func (b *BSR) MulDense(x *tensor.Matrix) *tensor.Matrix {
	if b.Cols != x.Rows {
		panic(fmt.Sprintf("sparse: BSR MulDense shape mismatch %dx%d x %dx%d", b.Rows, b.Cols, x.Rows, x.Cols))
	}
	out := tensor.New(b.Rows, x.Cols)
	bs, k := b.BlockSize, x.Cols
	for bi := 0; bi < b.BlockRows; bi++ {
		for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
			bj := int(b.ColIdx[p])
			blk := b.Block(int(p))
			for r := 0; r < bs; r++ {
				orow := out.Row(bi*bs + r)
				for c := 0; c < bs; c++ {
					v := blk[r*bs+c]
					if v == 0 {
						continue
					}
					xrow := x.Data[(bj*bs+c)*k : (bj*bs+c+1)*k]
					for j := 0; j < k; j++ {
						orow[j] += v * xrow[j]
					}
				}
			}
		}
	}
	return out
}

// MulDenseRowsInto computes the block-row window [br0, br1) of b·x into
// out (shape (br1-br0)·BlockSize × x.Cols, overwritten) through the
// block-specialized kernels. The window's rows accumulate the same blocks
// in the same order as MulDenseInto, so the result is bit-for-bit the
// corresponding row slice of the full product — the kernel one
// tensor-parallel shard of a pixelfly layer executes. out must not alias
// x.
func (b *BSR) MulDenseRowsInto(out, x *tensor.Matrix, br0, br1 int) {
	if b.Cols != x.Rows {
		panic(fmt.Sprintf("sparse: BSR MulDenseRows shape mismatch %dx%d x %dx%d", b.Rows, b.Cols, x.Rows, x.Cols))
	}
	if br0 < 0 || br1 < br0 || br1 > b.BlockRows {
		panic(fmt.Sprintf("sparse: BSR block-row window [%d,%d) outside %d block rows", br0, br1, b.BlockRows))
	}
	bs, k := b.BlockSize, x.Cols
	if out.Rows != (br1-br0)*bs || out.Cols != k {
		panic(fmt.Sprintf("sparse: BSR MulDenseRowsInto dst %dx%d, want %dx%d", out.Rows, out.Cols, (br1-br0)*bs, k))
	}
	out.Zero()
	b.mulDenseMicro(out, x, nil, tensor.ActNone, br0, br1, br0*bs)
}

// TransposeMulDense computes bᵀ·x: (Cols×Rows)·(Rows×K); used in backward
// passes of block-sparse layers. Output block columns are split across
// GOMAXPROCS workers (tensor.ParallelRows). Each output element sums its
// contributions by ascending block row, then ascending row within the
// block — the order of the plain row-major loop — so the result does not
// depend on the worker count.
func (b *BSR) TransposeMulDense(x *tensor.Matrix) *tensor.Matrix {
	if b.Rows != x.Rows {
		panic(fmt.Sprintf("sparse: BSR TransposeMulDense shape mismatch %dx%d^T x %dx%d", b.Rows, b.Cols, x.Rows, x.Cols))
	}
	out := tensor.New(b.Cols, x.Cols)
	tensor.ParallelRows(b.BlockCols, b.macs(x.Cols), bsrJob{b, out, x}, func(j bsrJob, lo, hi int) {
		j.b.transposeMulCols(j.out, j.x, lo, hi)
	})
	return out
}

// AccumulateOuter adds lr·dY·x into the stored blocks only — the
// weight-gradient of a block-sparse layer. dY is feature-major (Rows×K)
// and x batch-major (K×Cols), the layout the layer's forward input
// already has. Block rows are split across GOMAXPROCS workers; every
// stored entry is one dot product over K, summed in ascending order from
// zero, so the result does not depend on the worker count.
func (b *BSR) AccumulateOuter(dY, x *tensor.Matrix, lr float32) {
	if dY.Rows != b.Rows || x.Cols != b.Cols || dY.Cols != x.Rows {
		panic("sparse: AccumulateOuter shape mismatch")
	}
	tensor.ParallelRows(b.BlockRows, b.macs(dY.Cols), outerJob{b, dY, x, lr}, func(j outerJob, lo, hi int) {
		j.b.accumulateOuterRows(j.dY, j.x, j.lr, lo, hi)
	})
}

// macs is the multiply-add count of one product of b with a width-k
// dense operand: the work measure tensor.ParallelRows compares against
// its serial cutoff.
func (b *BSR) macs(k int) int { return len(b.Blocks) * k }

// bsrJob carries a product's operands to its workers.
type bsrJob struct {
	b      *BSR
	out, x *tensor.Matrix
}

// outerJob carries AccumulateOuter's operands to its workers.
type outerJob struct {
	b     *BSR
	dY, x *tensor.Matrix
	lr    float32
}

// Flops returns the useful flops of MulDense with a width-k RHS:
// 2 · numBlocks · blockSize² · k.
func (b *BSR) Flops(k int) float64 {
	return 2 * float64(b.NumBlocks()) * float64(b.BlockSize*b.BlockSize) * float64(k)
}
