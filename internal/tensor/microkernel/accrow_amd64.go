//go:build !purego

package microkernel

// accRowAVX2 is AccRow's AVX2 lane, for operands AccRow has checked
// (n > 0, k > 0, strides ≥ 0, every index in bounds). It keeps 32
// columns of dst in four YMM registers across every term, then the
// columns left over (whole 8-lane chunks and a masked last group) in one
// more pass. Each term is one broadcast, one VMULPS and one VADDPS per
// lane, and no FMA, so every element runs accRowGo's chain.
//
//go:noescape
func accRowAVX2(dst, a *float32, aStride int, b *float32, bStride, n, k int, skipZero bool)
