package tensor

import (
	"fmt"

	"repro/internal/tensor/microkernel"
)

// Activation identifies the elementwise nonlinearity an epilogue-aware
// kernel applies as it writes each output element. The fusion contract of
// the compiled inference plans: act(linear + bias) must be produced by
// exactly the float32 operations the unfused sweeps perform, so fused and
// unfused plans stay bit-for-bit equal.
type Activation int

const (
	// ActNone applies no nonlinearity.
	ActNone Activation = iota
	// ActReLU clamps non-positive values to zero — the same comparison
	// nn.ReLU's inference path uses (NaN also maps to zero).
	ActReLU
)

func (a Activation) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActReLU:
		return "relu"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Apply returns act(v): the activation's float32 semantics, ReLU being
// microkernel.ReLU (non-positives, including NaN, clamp to +0), the one
// ReLU every fused kernel and nn.ReLU run, so the fused-vs-unfused
// bit-for-bit contract has exactly one implementation to agree with.
func (a Activation) Apply(v float32) float32 {
	if a == ActReLU {
		return microkernel.ReLU(v)
	}
	return v
}

// ApplyBiasActInto writes act(x + bias) into dst in one sweep: the generic
// epilogue for operators without a deeper fused final stage. dst may alias
// x; bias may be nil (len == Cols otherwise).
func ApplyBiasActInto(dst, x *Matrix, bias []float32, act Activation) {
	checkSameShape("ApplyBiasActInto", dst, x)
	if bias != nil && len(bias) != x.Cols {
		panic(fmt.Sprintf("tensor: ApplyBiasActInto bias length %d != cols %d", len(bias), x.Cols))
	}
	for i := 0; i < x.Rows; i++ {
		src := x.Row(i)
		row := dst.Row(i)
		if dst != x {
			copy(row, src)
		}
		microkernel.EpilogueRow(row, bias, act == ActReLU)
	}
}

func checkBiasLen(op string, bias []float32, cols int) {
	if bias != nil && len(bias) != cols {
		panic(fmt.Sprintf("tensor: %s bias length %d != cols %d", op, len(bias), cols))
	}
}

// MatMulColsBiasActInto computes act(a·b + bias) over b's column window
// [lo, hi) into the column window [dstLo, dstLo+hi-lo) of dst, in a
// single pass over the output: each row is one microkernel.AccRow over
// a's terms, p ascending, reading the window of b's rows in place
// through b's row stride and skipping the zero terms of a, with the bias
// add and activation folded into the moment the row completes. So every
// element runs MatMulInto's chain, and the window is bit for bit that of
// MatMulInto + AddRowVector + a separate activation sweep. With [0,
// b.Cols) into a dst as wide as b it is the full fused product. bias is
// window-relative and may be nil; columns of dst outside the window are
// untouched. dst must not alias a or b.
func MatMulColsBiasActInto(dst *Matrix, dstLo int, a, b *Matrix, lo, hi int, bias []float32, act Activation) {
	checkMulShapes(a, b)
	if dst.Rows != a.Rows {
		panic(fmt.Sprintf("tensor: MatMulColsBiasActInto dst rows %d != %d", dst.Rows, a.Rows))
	}
	checkColWindow("MatMulColsBiasActInto b", b, lo, hi-lo)
	checkColWindow("MatMulColsBiasActInto dst", dst, dstLo, hi-lo)
	checkBiasLen("MatMulColsBiasActInto", bias, hi-lo)
	w := hi - lo
	for i := 0; i < a.Rows; i++ {
		row := dst.Data[i*dst.Cols+dstLo : i*dst.Cols+dstLo+w]
		clear(row)
		microkernel.AccRow(row, a.Row(i), 1, b.Data[lo:], b.Cols, a.Cols, w, true)
		microkernel.EpilogueRow(row, bias, act == ActReLU)
	}
}

// AddInPlaceColsBiasAct folds a residual accumulation into the epilogue
// on the column window [lo, lo+src.Cols) of dst: dst = act((dst + src) +
// bias) in one sweep, matching the unfused AddInPlace + AddRowVector +
// activation chain element for element. bias is window-relative and may
// be nil; with lo 0 and src as wide as dst it is the full-width form.
func AddInPlaceColsBiasAct(dst *Matrix, lo int, src *Matrix, bias []float32, act Activation) {
	if dst.Rows != src.Rows {
		panic(fmt.Sprintf("tensor: AddInPlaceColsBiasAct rows %d != %d", dst.Rows, src.Rows))
	}
	checkColWindow("AddInPlaceColsBiasAct", dst, lo, src.Cols)
	checkBiasLen("AddInPlaceColsBiasAct", bias, src.Cols)
	for i := 0; i < src.Rows; i++ {
		row := dst.Data[i*dst.Cols+lo : i*dst.Cols+lo+src.Cols]
		s := src.Row(i)
		for j := range row {
			row[j] += s[j]
		}
		microkernel.EpilogueRow(row, bias, act == ActReLU)
	}
}
