package baselines

import (
	"math"

	"repro/internal/hadamard"
	"repro/internal/tensor"
)

// fwhtRowsInPlaceFast is fwhtRowsInPlace through the radix-8/blocked
// FWHT micro-kernel. Every butterfly and the 1/√n scaling perform the
// same float32 operations on the same operands, so the result is
// bit-identical.
func fwhtRowsInPlaceFast(x *tensor.Matrix) {
	inv := float32(1 / math.Sqrt(float64(x.Cols)))
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		hadamard.TransformFast(row)
		for i := range row {
			row[i] *= inv
		}
	}
}

// MicroVariant names the FWHT kernel ApplyInto runs, which the plan
// compiler stamps into step metadata (below n=8 the FWHT runs a plain
// loop).
func (f *Fastfood) MicroVariant() string {
	if f.N >= 8 {
		return "radix8"
	}
	return "reference"
}
