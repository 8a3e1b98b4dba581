//go:build !amd64 || purego

package microkernel

// haveAVX2 is false: the AVX2 lane is amd64 assembly, and the purego
// tag leaves it out, so MatMul runs the Go tile.
const haveAVX2 = false

// productAVX2 is never called where haveAVX2 is false.
func productAVX2(dst []float32, dstStride, dstOff int, a []float32, aStride, r0, r1 int, packed []float32, n, k int) {
	panic("microkernel: no AVX2 lane in this build")
}
