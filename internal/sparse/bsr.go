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
	BlockRows  int     // Rows / BlockSize
	BlockCols  int     // Cols / BlockSize
	RowPtr     []int32 // length BlockRows+1, indexes into ColIdx/Blocks
	ColIdx     []int32 // block-column index per stored block
	// Blocks holds the stored blocks in RowPtr order, len(ColIdx) ·
	// BlockSize² values, each block transposed: entry (r, c) of the block
	// at block row R and block column C, the matrix element
	// (R·BlockSize+r, C·BlockSize+c), sits at c·BlockSize+r. Column c of
	// a block is then one contiguous run, the layout in which the
	// batch-major product MulInto reads it.
	Blocks []float32
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

// Block returns the storage slice of the n-th stored block (mutable), in
// the transposed layout of Blocks: entry (r, c) at c·BlockSize+r.
func (b *BSR) Block(n int) []float32 {
	sz := b.BlockSize * b.BlockSize
	return b.Blocks[n*sz : (n+1)*sz]
}

// FillRowMajor sets every stored entry to next(), block by block in
// RowPtr order and row by row within a block, whatever the storage
// layout, so a generator gives each logical entry the same value.
func (b *BSR) FillRowMajor(next func() float32) {
	bs := b.BlockSize
	for o := 0; o < len(b.Blocks); o += bs * bs {
		for r := 0; r < bs; r++ {
			for c := 0; c < bs; c++ {
				b.Blocks[o+c*bs+r] = next()
			}
		}
	}
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
				for c := range dst {
					dst[c] += blk[c*bs+r]
				}
			}
		}
	}
	return out
}

// MulDense computes b·x with x dense and feature-major: (Rows×Cols)·
// (Cols×K). This is the block-sparse matmul that pixelfly's GPU
// implementation maps onto tensor cores; here it is the reference
// semantics for both machine models, the path of pixelfly's Apply, and
// the oracle the batch-major kernels (MulInto, InputGradInto) are tested
// against.
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
					v := blk[c*bs+r]
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

// TransposeBlocks writes every stored block, transposed, into dst
// (len(Blocks) values, overwritten): the blocks in row-major order, entry
// (r, c) at r·BlockSize+c, the layout InputGradInto reads. It reads four
// stored rows at a time, so each write is a run of four values.
func (b *BSR) TransposeBlocks(dst []float32) {
	if len(dst) != len(b.Blocks) {
		panic(fmt.Sprintf("sparse: TransposeBlocks dst length %d != %d", len(dst), len(b.Blocks)))
	}
	bs := b.BlockSize
	sz := bs * bs
	for o := 0; o < len(dst); o += sz {
		src, out := b.Blocks[o:o+sz], dst[o:o+sz]
		i := 0
		for ; i+4 <= bs; i += 4 {
			r0 := src[i*bs : i*bs+bs]
			r1 := src[(i+1)*bs : (i+1)*bs+bs][:len(r0)]
			r2 := src[(i+2)*bs : (i+2)*bs+bs][:len(r0)]
			r3 := src[(i+3)*bs : (i+3)*bs+bs][:len(r0)]
			for j := range r0 {
				d := out[j*bs+i : j*bs+i+4 : j*bs+i+4]
				d[0], d[1], d[2], d[3] = r0[j], r1[j], r2[j], r3[j]
			}
		}
		for ; i < bs; i++ {
			for j, v := range src[i*bs : i*bs+bs] {
				out[j*bs+i] = v
			}
		}
	}
}

// Flops returns the useful flops of MulDense with a width-k RHS:
// 2 · numBlocks · blockSize² · k.
func (b *BSR) Flops(k int) float64 {
	return 2 * float64(b.NumBlocks()) * float64(b.BlockSize*b.BlockSize) * float64(k)
}
