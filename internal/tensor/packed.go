package tensor

import (
	"fmt"

	"repro/internal/tensor/microkernel"
)

// PackedB is a weight matrix repacked into the column-panel layout the
// register-tiled micro-kernel consumes (see internal/tensor/microkernel).
// Packing happens once — at plan-compile time, since weights are
// read-only — so steady-state execution stays allocation-free and the
// kernel's inner loop streams the panel sequentially with no bounds
// checks.
type PackedB struct {
	rows, cols int
	data       []float32
}

// Pack repacks b (treated as the right-hand operand of a matmul) into
// NR-wide column panels. The returned value is immutable and safe for
// concurrent use.
func Pack(b *Matrix) *PackedB {
	pb := &PackedB{
		rows: b.Rows,
		cols: b.Cols,
		data: make([]float32, microkernel.PackedLen(b.Rows, b.Cols)),
	}
	microkernel.PackB(pb.data, b.Data, b.Rows, b.Cols)
	return pb
}

func checkPackedShapes(name string, dst, a *Matrix, pb *PackedB) {
	if a.Cols != pb.rows {
		panic(fmt.Sprintf("tensor: %s shape mismatch (%d×%d)·packed(%d×%d)", name, a.Rows, a.Cols, pb.rows, pb.cols))
	}
	checkIntoShape(name, dst, a.Rows, pb.cols)
}

// MatMulPackedBiasActParallelInto computes dst = act(a·B + bias) through
// the register-tiled micro-kernel, with rows split across GOMAXPROCS
// workers (ParallelRows, the same work measure as MatMulParallelInto).
// bias may be nil; a nil bias with ActNone is the plain product. Rows are
// independent, so the partition never affects results, which are
// bit-for-bit MatMulInto + AddRowVector + an activation sweep up to the
// sign of exact zeros (the tiled path drops the reference av==0 skip,
// which only affects signed-zero outputs).
func MatMulPackedBiasActParallelInto(dst, a *Matrix, pb *PackedB, bias []float32, act Activation) {
	checkPackedShapes("MatMulPackedBiasActParallelInto", dst, a, pb)
	checkBiasLen("MatMulPackedBiasActParallelInto", bias, pb.cols)
	ParallelRows(a.Rows, a.Rows*a.Cols*pb.cols, packedJob{dst, a, pb, bias, act == ActReLU}, func(j packedJob, lo, hi int) {
		microkernel.MatMul(j.dst.Data, j.dst.Cols, 0, j.a.Data, j.a.Cols, lo, hi, j.pb.data, j.pb.rows, j.pb.cols, j.bias, j.relu)
	})
}

// packedJob carries MatMulPackedBiasActParallelInto's operands to its
// workers.
type packedJob struct {
	dst, a *Matrix
	pb     *PackedB
	bias   []float32
	relu   bool
}

// MatMulPackedColsBiasActInto is the serial column-window form of
// MatMulPackedBiasActParallelInto: it computes columns [lo, hi) of
// act(a·B + bias) into the same columns of dst (as wide as B), reading
// only the NR-wide panels of B that cover the window, in place. It is
// the kernel one tensor-parallel shard runs on its window of a packed
// weight, so lo must fall on a panel boundary (a multiple of
// microkernel.NR) and hi on one too, or on B's last column. Panels are
// independent and every element keeps MatMul's chain, so windows
// assembled across shards are bit for bit the full product. bias is
// window-relative and may be nil; columns outside the window are
// untouched. With [0, B.Cols) it is the serial full product.
func MatMulPackedColsBiasActInto(dst, a *Matrix, pb *PackedB, lo, hi int, bias []float32, act Activation) {
	if a.Cols != pb.rows {
		panic(fmt.Sprintf("tensor: MatMulPackedColsBiasActInto shape mismatch (%d×%d)·packed(%d×%d)", a.Rows, a.Cols, pb.rows, pb.cols))
	}
	checkIntoShape("MatMulPackedColsBiasActInto", dst, a.Rows, pb.cols)
	if lo < 0 || lo > hi || hi > pb.cols || lo%microkernel.NR != 0 || (hi%microkernel.NR != 0 && hi != pb.cols) {
		panic(fmt.Sprintf("tensor: MatMulPackedColsBiasActInto window [%d,%d) is not a run of whole panels of %d columns", lo, hi, pb.cols))
	}
	checkBiasLen("MatMulPackedColsBiasActInto", bias, hi-lo)
	pl := pb.rows * microkernel.NR // float32s per panel
	microkernel.MatMul(dst.Data, dst.Cols, lo, a.Data, a.Cols, 0, a.Rows, pb.data[lo/microkernel.NR*pl:], pb.rows, hi-lo, bias, act == ActReLU)
}
