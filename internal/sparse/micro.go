package sparse

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/tensor/microkernel"
)

// Micro-kernel BSR×dense products: block-size-specialized kernels with
// the per-scalar `v == 0` skip dropped. Structural sparsity lives at
// block granularity — absent blocks are never visited via RowPtr/ColIdx,
// which is the skip worth keeping — while stored blocks are dense by
// construction (rank-one butterfly blocks), so the per-scalar branch is
// almost never taken and only costs. Dropping it can only change the
// sign of exact-zero contributions, which float comparison treats as
// equal. Accumulation per output element stays c-ascending with
// sequential adds, so results are otherwise bit-identical to the
// reference loop in MulDense.
//
// Block sizes other than 4 and 8 (the paper's 64 among them), and the
// training kernels at every block size — the transposed product
// (accBlockT) and the weight gradient (accumulateOuterRows) — run each
// block row, block column or gradient row as one microkernel.AccRow, on
// its AVX2 lane where the host has one; the one-column serving loop
// (accBlockVec) stays in Go.

// MulDenseInto computes act(b·x + bias) into caller-owned out (shape
// Rows×x.Cols, overwritten) through the block-specialized kernels: full
// unroll at bs=4 and bs=8, a 4-column tiling otherwise, and row dot
// products over each block when x has one column. It is the
// allocation-free kernel the compiled pixelfly inference path executes
// through. bias is indexed by the logical row of out (feature-major, like
// the product) and may be nil; a nil bias with ActNone is the plain
// product. As soon as a block row's accumulation completes, its rows get
// the bias and activation while they are still cache-hot, with the same
// float32 chain as separate sweeps. out must not alias x.
func (b *BSR) MulDenseInto(out, x *tensor.Matrix, bias []float32, act tensor.Activation) {
	if b.Cols != x.Rows {
		panic(fmt.Sprintf("sparse: BSR MulDense shape mismatch %dx%d x %dx%d", b.Rows, b.Cols, x.Rows, x.Cols))
	}
	if out.Rows != b.Rows || out.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: BSR MulDenseInto dst %dx%d, want %dx%d", out.Rows, out.Cols, b.Rows, x.Cols))
	}
	if bias != nil && len(bias) != b.Rows {
		panic(fmt.Sprintf("sparse: BSR MulDenseInto bias length %d != rows %d", len(bias), b.Rows))
	}
	out.Zero()
	b.mulDenseMicro(out, x, bias, act, 0, b.BlockRows, 0)
}

// MulDenseParallel is MulDense through the block-specialized kernels,
// with block rows split across GOMAXPROCS workers (tensor.ParallelRows):
// the training forward product. Each output row belongs to one block row,
// so it is bit-for-bit MulDenseInto at any worker count.
func (b *BSR) MulDenseParallel(x *tensor.Matrix) *tensor.Matrix {
	if b.Cols != x.Rows {
		panic(fmt.Sprintf("sparse: BSR MulDense shape mismatch %dx%d x %dx%d", b.Rows, b.Cols, x.Rows, x.Cols))
	}
	out := tensor.New(b.Rows, x.Cols)
	tensor.ParallelRows(b.BlockRows, b.macs(x.Cols), bsrJob{b, out, x}, func(j bsrJob, lo, hi int) {
		j.b.mulDenseMicro(j.out, j.x, nil, tensor.ActNone, lo, hi, 0)
	})
	return out
}

// MicroVariant names the block-specialized kernel this matrix multiplies
// through.
func (b *BSR) MicroVariant() string {
	switch b.BlockSize {
	case 4:
		return "unroll4"
	case 8:
		return "unroll8"
	default:
		return "blocktiled"
	}
}

// mulDenseMicro accumulates the block rows [br0, br1) of b·x into out,
// which the caller has zeroed, writing logical row i to out row i-off.
// Unless bias is nil and act is ActNone, each block row is finished with
// the epilogue (bias indexed by logical row) as soon as it completes.
// A one-column x (a one-row serving batch, feature-major) takes
// mulVecMicro instead: the batch-tiled inner loops below would run a
// single iteration.
func (b *BSR) mulDenseMicro(out, x *tensor.Matrix, bias []float32, act tensor.Activation, br0, br1, off int) {
	if x.Cols == 1 {
		b.mulVecMicro(out.Data, x.Data, bias, act, br0, br1, off)
		return
	}
	bs, k := b.BlockSize, x.Cols
	epi := bias != nil || act != tensor.ActNone
	for bi := br0; bi < br1; bi++ {
		row0 := bi*bs - off
		for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
			bj := int(b.ColIdx[p])
			blk := b.Block(int(p))
			switch bs {
			case 4:
				accBlock4(out, x, blk, row0, bj*4, k)
			case 8:
				accBlock8(out, x, blk, row0, bj*8, k)
			default:
				accBlockTiled(out, x, blk, row0, bj*bs, bs, k)
			}
		}
		if epi {
			for r := 0; r < bs; r++ {
				row := out.Row(row0 + r)
				if bias != nil {
					bv := bias[bi*bs+r]
					for j, v := range row {
						row[j] = act.Apply(v + bv)
					}
				} else {
					for j, v := range row {
						row[j] = act.Apply(v)
					}
				}
			}
		}
	}
}

// mulVecMicro is mulDenseMicro for a one-column x: out and x are the
// product's and the input's single columns. Each stored block runs as row
// dot products (accBlockVec), and the epilogue finishes each block row's
// elements with the same float32 chain as the batch-tiled epilogue.
func (b *BSR) mulVecMicro(out, x, bias []float32, act tensor.Activation, br0, br1, off int) {
	bs := b.BlockSize
	epi := bias != nil || act != tensor.ActNone
	for bi := br0; bi < br1; bi++ {
		o := out[bi*bs-off : bi*bs-off+bs]
		for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
			bj := int(b.ColIdx[p])
			accBlockVec(o, x[bj*bs:bj*bs+bs], b.Block(int(p)))
		}
		if epi {
			for r, v := range o {
				if bias != nil {
					v += bias[bi*bs+r]
				}
				o[r] = act.Apply(v)
			}
		}
	}
}

// accBlockVec accumulates one stored block times the input segment xs
// into o, four block rows at a time with a scalar tail for bs % 4. Each
// row's sum is its own accumulator: it starts from the running output and
// adds blk[r][c]·xs[c] for c ascending as sequential float32 adds — the
// chain accBlock4, accBlock8 and accBlockTiled give every element.
func accBlockVec(o, xs, blk []float32) {
	bs := len(xs)
	r := 0
	for ; r+4 <= bs; r += 4 {
		b0 := blk[r*bs : r*bs+bs][:len(xs)]
		b1 := blk[(r+1)*bs : (r+1)*bs+bs][:len(xs)]
		b2 := blk[(r+2)*bs : (r+2)*bs+bs][:len(xs)]
		b3 := blk[(r+3)*bs : (r+3)*bs+bs][:len(xs)]
		s := o[r : r+4 : r+4]
		s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
		for c, xv := range xs {
			s0 += b0[c] * xv
			s1 += b1[c] * xv
			s2 += b2[c] * xv
			s3 += b3[c] * xv
		}
		s[0], s[1], s[2], s[3] = s0, s1, s2, s3
	}
	for ; r < bs; r++ {
		br := blk[r*bs : r*bs+bs][:len(xs)]
		s := o[r]
		for c, xv := range xs {
			s += br[c] * xv
		}
		o[r] = s
	}
}

// accBlock4 accumulates one stored 4×4 block: the four RHS rows are
// hoisted once per block and every output element gets its four
// contributions as sequential adds in c order.
func accBlock4(out, x *tensor.Matrix, blk []float32, row0, col0, k int) {
	x0 := x.Data[col0*k : col0*k+k]
	x1 := x.Data[(col0+1)*k : (col0+1)*k+k][:len(x0)]
	x2 := x.Data[(col0+2)*k : (col0+2)*k+k][:len(x0)]
	x3 := x.Data[(col0+3)*k : (col0+3)*k+k][:len(x0)]
	for r := 0; r < 4; r++ {
		v := blk[r*4 : r*4+4 : r*4+4]
		v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
		orow := out.Row(row0 + r)[:len(x0)]
		for j, xv := range x0 {
			s := orow[j]
			s += v0 * xv
			s += v1 * x1[j]
			s += v2 * x2[j]
			s += v3 * x3[j]
			orow[j] = s
		}
	}
}

// accBlock8 is accBlock4 for 8×8 blocks.
func accBlock8(out, x *tensor.Matrix, blk []float32, row0, col0, k int) {
	x0 := x.Data[col0*k : col0*k+k]
	x1 := x.Data[(col0+1)*k : (col0+1)*k+k][:len(x0)]
	x2 := x.Data[(col0+2)*k : (col0+2)*k+k][:len(x0)]
	x3 := x.Data[(col0+3)*k : (col0+3)*k+k][:len(x0)]
	x4 := x.Data[(col0+4)*k : (col0+4)*k+k][:len(x0)]
	x5 := x.Data[(col0+5)*k : (col0+5)*k+k][:len(x0)]
	x6 := x.Data[(col0+6)*k : (col0+6)*k+k][:len(x0)]
	x7 := x.Data[(col0+7)*k : (col0+7)*k+k][:len(x0)]
	for r := 0; r < 8; r++ {
		v := blk[r*8 : r*8+8 : r*8+8]
		v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
		v4, v5, v6, v7 := v[4], v[5], v[6], v[7]
		orow := out.Row(row0 + r)[:len(x0)]
		for j, xv := range x0 {
			s := orow[j]
			s += v0 * xv
			s += v1 * x1[j]
			s += v2 * x2[j]
			s += v3 * x3[j]
			s += v4 * x4[j]
			s += v5 * x5[j]
			s += v6 * x6[j]
			s += v7 * x7[j]
			orow[j] = s
		}
	}
}

// accBlockTiled handles other block sizes: each block row is one
// microkernel.AccRow over the block's bs input rows, so each output
// element receives its adds in ascending c order, as sequential float32
// adds. Zeros inside a stored block are not skipped.
func accBlockTiled(out, x *tensor.Matrix, blk []float32, row0, col0, bs, k int) {
	xs := x.Data[col0*k:]
	for r := 0; r < bs; r++ {
		microkernel.AccRow(out.Row(row0+r), blk[r*bs:], 1, xs, k, bs, k, false)
	}
}

// transposeMulCols accumulates the block columns [bc0, bc1) of bᵀ·x into
// out, which the caller has zeroed: block row bi of x (its rows
// bi·bs … bi·bs+bs-1) scaled by the block's transpose, for each stored
// block of the column in ascending block-row order.
func (b *BSR) transposeMulCols(out, x *tensor.Matrix, bc0, bc1 int) {
	bs, k := b.BlockSize, x.Cols
	for bj := bc0; bj < bc1; bj++ {
		for q := b.colPtr[bj]; q < b.colPtr[bj+1]; q++ {
			accBlockT(out, x, b.Block(int(b.colBlk[q])), bj*bs, int(b.colRow[q])*bs, bs, k)
		}
	}
}

// accBlockT accumulates blkᵀ·x[row0 : row0+bs] into out[col0 : col0+bs]:
// each block column c is one microkernel.AccRow with a = that column
// (stride bs), so output row col0+c receives its adds in ascending r
// order, as sequential float32 adds.
func accBlockT(out, x *tensor.Matrix, blk []float32, col0, row0, bs, k int) {
	xs := x.Data[row0*k:]
	for c := 0; c < bs; c++ {
		microkernel.AccRow(out.Row(col0+c), blk[c:], bs, xs, k, bs, k, false)
	}
}

// outerChunk is how many of a block row's gradient entries
// accumulateOuterRows sums at once, in a stack buffer.
const outerChunk = 64

// accumulateOuterRows adds lr·dY·x into the stored blocks of the block
// rows [br0, br1), x batch-major (K×Cols). The bs entries of one block
// row are one microkernel.AccRow over the K samples, from zero: entry c
// sums dY[r][j]·x[j][col0+c] for j ascending as a sequential float32
// chain, and then the block entry adds lr times that sum.
func (b *BSR) accumulateOuterRows(dY, x *tensor.Matrix, lr float32, br0, br1 int) {
	bs, k := b.BlockSize, dY.Cols
	var buf [outerChunk]float32
	for bi := br0; bi < br1; bi++ {
		for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
			col0 := int(b.ColIdx[p]) * bs
			blk := b.Block(int(p))
			for r := 0; r < bs; r++ {
				dy := dY.Data[(bi*bs+r)*k : (bi*bs+r)*k+k]
				g := blk[r*bs : r*bs+bs]
				for c0 := 0; c0 < bs; c0 += outerChunk {
					s := buf[:min(outerChunk, bs-c0)]
					clear(s)
					microkernel.AccRow(s, dy, 1, x.Data[col0+c0:], x.Cols, k, len(s), false)
					gc := g[c0 : c0+len(s)]
					for c, v := range s {
						gc[c] += lr * v
					}
				}
			}
		}
	}
}
