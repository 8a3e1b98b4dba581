// Package hadamard implements the fast Walsh–Hadamard transform (FWHT),
// the H factor of the Fastfood baseline (S·H·G·Π·H·B). The transform is
// its own inverse up to a 1/N factor, which makes the Fastfood backward
// pass a second application of the same kernel.
package hadamard

import (
	"fmt"

	"repro/internal/tensor/microkernel"
)

// Transform applies the (unnormalized) Walsh–Hadamard transform to x in
// place. len(x) must be a power of two. The unnormalized transform obeys
// H·H = N·I.
func Transform(x []float32) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("hadamard: length %d is not a power of two", n))
	}
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				a, b := x[j], x[j+h]
				x[j], x[j+h] = a+b, a-b
			}
		}
	}
}

// TransformFast is Transform through the register-tiled micro-kernel:
// the h=1/2/4 passes fuse into one radix-8 sweep and later passes run
// unrolled with an L1-blocked pass order. Every butterfly performs the
// same a+b / a-b on the same operands as Transform's triple loop, so the
// result is bit-identical.
func TransformFast(x []float32) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("hadamard: length %d is not a power of two", n))
	}
	microkernel.FWHT(x)
}
