//go:build !amd64 || purego

package microkernel

// haveAVX2 is false: the AVX2 lanes are amd64 assembly, and the purego
// tag leaves them out, so MatMul runs the Go tile and AccRow its Go lane.
const haveAVX2 = false

// productAVX2 is never called where haveAVX2 is false.
func productAVX2(dst []float32, dstStride, dstOff int, a []float32, aStride, r0, r1 int, packed []float32, n, k int) {
	panic("microkernel: no AVX2 lane in this build")
}

// accRowAVX2 is never called where haveAVX2 is false.
func accRowAVX2(dst, a *float32, aStride int, b *float32, bStride, n, k int, skipZero bool) {
	panic("microkernel: no AVX2 lane in this build")
}
