//go:build !purego

package microkernel

import "unsafe"

// haveAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
// It is read once, at package init, and picks MatMul's and AccRow's
// lanes.
var haveAVX2 = cpuHasAVX2()

// cpuHasAVX2 reads CPUID for AVX and AVX2, and XCR0 (XGETBV) for the OS
// saving XMM and YMM state.
func cpuHasAVX2() bool

// mul1x32AVX2 runs four mul1x8 tiles in one pass over a[:n]: for the
// four n×NR panels that lie back to back from pan, it stores
// dst[q*NR+l] = Σ_p a[p]*pan_q[p*NR+l], p ascending from +0. Each step
// is one single-precision multiply and one add per lane, and no FMA, so
// every element runs mul1x8's chain and matches it bit for bit.
//
//go:noescape
func mul1x32AVX2(dst, a, pan *float32, n int)

// mul1x8AVX2 is mul1x32AVX2 for one panel: it stores all NR lanes.
//
//go:noescape
func mul1x8AVX2(dst, a, pan *float32, n int)

// productAVX2 is productGo on the AVX2 lane. Groups of four whole
// panels run mul1x32AVX2; the panels left over, and the ragged tail
// through an NR-lane stack temporary, run mul1x8AVX2. Every slice
// expression below is bounds-checked, so the assembly reads and writes
// only memory its operands own.
func productAVX2(dst []float32, dstStride, dstOff int, a []float32, aStride, r0, r1 int, packed []float32, n, k int) {
	pl := n * NR // float32s per panel
	np := (k + NR - 1) / NR
	jp := 0
	for ; jp+4 <= k/NR; jp += 4 {
		pan := unsafe.SliceData(packed[jp*pl : (jp+4)*pl])
		for row := r0; row < r1; row++ {
			off := row * aStride
			out := dst[row*dstStride+dstOff+jp*NR:][:4*NR]
			mul1x32AVX2(&out[0], unsafe.SliceData(a[off:off+n]), pan, n)
		}
	}
	for ; jp < np; jp++ {
		j0 := jp * NR
		w := min(k-j0, NR)
		pan := unsafe.SliceData(packed[jp*pl : (jp+1)*pl])
		for row := r0; row < r1; row++ {
			off := row * aStride
			out := dst[row*dstStride+dstOff+j0:][:w]
			if w == NR {
				mul1x8AVX2(&out[0], unsafe.SliceData(a[off:off+n]), pan, n)
				continue
			}
			var tmp [NR]float32
			mul1x8AVX2(&tmp[0], unsafe.SliceData(a[off:off+n]), pan, n)
			copy(out, tmp[:w])
		}
	}
}
