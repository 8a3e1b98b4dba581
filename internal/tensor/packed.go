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
// MatMulPackedBiasActParallelInto: it computes act(a·B + bias) into the
// column window [dstLo, dstLo+B.Cols) of dst, the kernel one
// tensor-parallel shard runs on its slice of a weight. bias is
// window-relative and may be nil; columns outside the window are
// untouched. With dstLo 0 and a dst as wide as B it is the serial full
// product.
func MatMulPackedColsBiasActInto(dst *Matrix, dstLo int, a *Matrix, pb *PackedB, bias []float32, act Activation) {
	if a.Cols != pb.rows {
		panic(fmt.Sprintf("tensor: MatMulPackedColsBiasActInto shape mismatch (%d×%d)·packed(%d×%d)", a.Rows, a.Cols, pb.rows, pb.cols))
	}
	if dst.Rows != a.Rows || dstLo < 0 || dstLo+pb.cols > dst.Cols {
		panic(fmt.Sprintf("tensor: MatMulPackedColsBiasActInto window [%d,%d) does not fit %d×%d dst",
			dstLo, dstLo+pb.cols, dst.Rows, dst.Cols))
	}
	checkBiasLen("MatMulPackedColsBiasActInto", bias, pb.cols)
	microkernel.MatMul(dst.Data, dst.Cols, dstLo, a.Data, a.Cols, 0, a.Rows, pb.data, pb.rows, pb.cols, bias, act == ActReLU)
}
