// Package microkernel holds the register-tiled inner kernels behind the
// tensor/butterfly/hadamard/sparse fast paths. Everything here works on
// raw float32 slices (no Matrix types, no imports of this module) so
// every operator family can share the same kernels without import
// cycles.
//
// The contract that makes these kernels safe to swap in at plan-compile
// time is bit-for-bit equivalence with the reference loops: every output
// element is produced by the same float32 operation chain, in the same
// order, as the naive code. Tiling only reorders *which elements* are
// computed when — never the reduction order *within* an element — so
// results are IEEE-754 identical (modulo the sign of exact zeros, which
// float comparison treats as equal).
//
// Two kernels run on one of two lanes each, chosen once at package init:
// on amd64 hosts whose CPU and OS offer AVX2, Go assembly; everywhere
// else, and under the purego build tag, pure Go, which is also the
// assembly's test oracle. Per lane, VMULPS and VADDPS are the IEEE
// single-precision MULSS and ADDSS, and the Go compiler emits FMA on
// amd64 only for math.FMA, so both lanes run the same chain per element
// and agree bit for bit.
//
//   - MatMul, the packed dense product of the inference plans: four 1×NR
//     tiles per pass on the AVX2 lane (matmul_amd64.s), the 1×NR tile
//     mul1x8 in Go. Variant names the lane. It deliberately drops the
//     reference loop's `av == 0` skip branch: on dense weights the
//     branch is nearly always not taken and costs more than it saves;
//     zeros there are incidental, not structural.
//   - AccRow, the strided row accumulate dst[j] += Σ_p a[p]·b[p][j] of
//     everything that is not packed: tensor's row-major products
//     (MatMulInto, MatMulParallel, MatMulColsBiasActInto; the training
//     products, the low-rank terms) and the BSR products of
//     internal/sparse (one call per stored block and sample, or per
//     block column for the weight gradient). 32 columns stay in YMM
//     registers across every term on the AVX2 lane (accrow_amd64.s); the
//     Go lane adds four terms per pass over dst. tensor's products skip zero terms of a, as their
//     reference loop always has, so the sign of an exact zero is kept.
//     On the AVX2 lane the skip costs no branch: a skipped term adds −0
//     in place of its products, which leaves every float32 accumulator's
//     bits as they were, so the random zero pattern of a ReLU output
//     mispredicts nothing. The BSR kernels do not skip: their zeros are
//     structural at block granularity (absent blocks), and a stored
//     block is dense by construction.
package microkernel

import "math"

// NR is the width of MatMul's tile: one output row, NR columns,
// accumulated against a packed B panel; one panel is one YMM register on
// the AVX2 lane. For the Go tile: Go on amd64 has 15 allocatable XMM
// registers; mul1x8 still moves one accumulator through the stack on
// each iteration (four MOVSS), while a two-row tile's body has 83 and
// measured slower, so every row runs the one-row tile.
const NR = 8

// PackedLen returns the slice length PackB needs for an n×k matrix:
// ceil(k/NR) panels of n×NR values (the ragged tail panel is
// zero-padded).
func PackedLen(n, k int) int {
	return (k + NR - 1) / NR * n * NR
}

// PackB packs the row-major n×k matrix b into NR-wide column panels:
// panel jp holds columns [jp*NR, jp*NR+NR), stored panel-major as
// dst[jp*n*NR + p*NR + l] = b[p*k + jp*NR + l]. Ragged tail lanes are
// zero-filled; the kernel computes them but never stores them.
func PackB(dst, b []float32, n, k int) {
	np := (k + NR - 1) / NR
	for jp := 0; jp < np; jp++ {
		j0 := jp * NR
		w := k - j0
		if w > NR {
			w = NR
		}
		pan := dst[jp*n*NR : (jp+1)*n*NR]
		for p := 0; p < n; p++ {
			src := b[p*k+j0 : p*k+j0+w]
			out := pan[p*NR : p*NR+NR : p*NR+NR]
			for l := 0; l < w; l++ {
				out[l] = src[l]
			}
			for l := w; l < NR; l++ {
				out[l] = 0
			}
		}
	}
}

// MatMul computes rows [r0,r1) of dst = act(a·B + bias), where B is the
// n×k matrix packed by PackB. Row i of a starts at a[i*aStride] and is n
// long; row i of the output occupies dst[i*dstStride+dstOff :
// i*dstStride+dstOff+k] (dstOff supports column-window outputs). bias,
// when non-nil, is window-relative (length k). relu applies ReLU after
// the bias add.
//
// Per output element the accumulation is Σ_p a[p]*b[p][j] with p
// ascending from a zero accumulator — exactly the reference
// matMulRows/matMulBiasActRows chain — so results are bit-identical on
// either lane. The output window is fully overwritten; callers need not
// zero it.
func MatMul(dst []float32, dstStride, dstOff int, a []float32, aStride, r0, r1 int, packed []float32, n, k int, bias []float32, relu bool) {
	if haveAVX2 {
		productAVX2(dst, dstStride, dstOff, a, aStride, r0, r1, packed, n, k)
	} else {
		productGo(dst, dstStride, dstOff, a, aStride, r0, r1, packed, n, k)
	}
	epilogueRows(dst, dstStride, dstOff, r0, r1, k, bias, relu)
}

// AccRow adds n strided terms into dst[:k]:
//
//	dst[j] += Σ_p a[p·aStride] · b[p·bStride + j]   for j < k,
//
// with p ascending, each term one float32 multiply and one float32 add
// onto the running dst[j]. With skipZero, the terms whose a[p·aStride]
// is ±0 are left out (NaN is kept). Strides may not be negative; rows of
// b may overlap (bStride < k). Every element runs the chain of the plain
// loop `for p { if skipZero && av == 0 { continue }; for j { dst[j] +=
// av*b[p][j] } }`, so both lanes match it, and each other, bit for bit.
// The AVX2 lane leaves a term out without a branch, by adding −0 in
// place of its products: in round-to-nearest x + (−0) = x for every
// float32 x, −0 and NaN included, and the ±Inf or NaN a skipped row of b
// may hold never enters the sum. Its cost is the same for every term, so
// a skip pays where a has zeros (a ReLU output) and costs two vector
// operations per eight columns where it has none.
func AccRow(dst, a []float32, aStride int, b []float32, bStride, n, k int, skipZero bool) {
	if n <= 0 || k <= 0 {
		return
	}
	if aStride < 0 || bStride < 0 {
		panic("microkernel: AccRow with a negative stride")
	}
	// Indexing bounds-checks, against each slice's length, the last
	// element each operand is read at, so the assembly reads and writes
	// only memory the operands own. (Reslicing would check only the
	// capacity.)
	_, _, _ = dst[k-1], a[(n-1)*aStride], b[(n-1)*bStride+k-1]
	if haveAVX2 {
		accRowAVX2(&dst[0], &a[0], aStride, &b[0], bStride, n, k, skipZero)
		return
	}
	accRowGo(dst, a, aStride, b, bStride, n, k, skipZero)
}

// accRowGo is AccRow's Go lane, for operands AccRow has checked. It adds
// four kept terms to each dst[j] in one pass (acc4), so dst is loaded and
// stored once per four terms, and the one to three terms left at the end
// one pass each. Without the skip the terms are consecutive, and their
// operands are indexed directly; with it, they are gathered first.
func accRowGo(dst, a []float32, aStride int, b []float32, bStride, n, k int, skipZero bool) {
	d := dst[:k]
	if !skipZero {
		p := 0
		for ; p+4 <= n; p += 4 {
			o := p * bStride
			acc4(d, a[p*aStride], a[(p+1)*aStride], a[(p+2)*aStride], a[(p+3)*aStride],
				b[o:o+k], b[o+bStride:o+bStride+k], b[o+2*bStride:o+2*bStride+k], b[o+3*bStride:o+3*bStride+k])
		}
		for ; p < n; p++ {
			acc1(d, a[p*aStride], b[p*bStride:p*bStride+k])
		}
		return
	}
	var v [4]float32
	var o [4]int
	m := 0
	for p := 0; p < n; p++ {
		if av := a[p*aStride]; av != 0 {
			v[m&3], o[m&3] = av, p*bStride
			if m++; m == 4 {
				acc4(d, v[0], v[1], v[2], v[3], b[o[0]:o[0]+k], b[o[1]:o[1]+k], b[o[2]:o[2]+k], b[o[3]:o[3]+k])
				m = 0
			}
		}
	}
	for i := range m {
		acc1(d, v[i], b[o[i]:o[i]+k])
	}
}

// acc4 adds v0·x0[j], v1·x1[j], v2·x2[j] and v3·x3[j] to dst[j], in
// that order, as sequential float32 adds.
func acc4(dst []float32, v0, v1, v2, v3 float32, x0, x1, x2, x3 []float32) {
	d := dst[:len(x0)]
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	for j, xv := range x0 {
		s := d[j]
		s += v0 * xv
		s += v1 * x1[j]
		s += v2 * x2[j]
		s += v3 * x3[j]
		d[j] = s
	}
}

// acc1 adds v·x[j] to dst[j].
func acc1(dst []float32, v float32, x []float32) {
	d := dst[:len(x)]
	for j, xv := range x {
		d[j] += v * xv
	}
}

// Variant names the tile MatMul runs on this host, for the kernel
// variant label of every dense-family step: "avx2_1x32" on the AVX2
// lane (one row by four NR-wide panels), "tiled1x8" on the Go tile.
func Variant() string {
	if haveAVX2 {
		return "avx2_1x32"
	}
	return "tiled1x8"
}

// productGo writes rows [r0,r1) of a·B into the output window through
// the Go tile; MatMul's operands, without the epilogue.
func productGo(dst []float32, dstStride, dstOff int, a []float32, aStride, r0, r1 int, packed []float32, n, k int) {
	np := (k + NR - 1) / NR
	// Panels outermost: each n×NR panel is streamed from memory once and
	// stays cache-hot across every row of A, so the weight matrix is read
	// exactly once per call regardless of batch size (the reference row
	// kernel re-streams it once per row).
	for jp := 0; jp < np; jp++ {
		j0 := jp * NR
		w := k - j0
		if w > NR {
			w = NR
		}
		pan := packed[jp*n*NR : (jp+1)*n*NR]
		for row := r0; row < r1; row++ {
			off := row * aStride
			mul1x8(dst[row*dstStride+dstOff+j0:], a[off:off+n:off+n], pan, n, w)
		}
	}
}

// mul1x8 accumulates one output row segment of w ≤ NR columns:
// c[l] = Σ_p a[p]*pan[p*NR+l], p ascending, then stores the first w
// lanes into dst. Eight independent accumulator chains give the
// instruction-level parallelism; the packed panel makes the inner loop's
// loads sequential and bounds-check-free.
func mul1x8(dst, a, pan []float32, n, w int) {
	var c0, c1, c2, c3, c4, c5, c6, c7 float32
	// Ranging over a pins the trip count to len(a), and the
	// constant-length subslice b proves len(b) == NR, so every load in
	// the loop body is bounds-check-free.
	for p, av := range a {
		o := p * NR
		b := pan[o : o+NR : o+NR]
		c0 += av * b[0]
		c1 += av * b[1]
		c2 += av * b[2]
		c3 += av * b[3]
		c4 += av * b[4]
		c5 += av * b[5]
		c6 += av * b[6]
		c7 += av * b[7]
	}
	if w == NR {
		d := dst[:NR:NR]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = c0, c1, c2, c3, c4, c5, c6, c7
		return
	}
	tmp := [NR]float32{c0, c1, c2, c3, c4, c5, c6, c7}
	copy(dst[:w], tmp[:w])
}

// epilogueRows runs EpilogueRow over rows [r0,r1) of MatMul's output
// window.
func epilogueRows(dst []float32, dstStride, dstOff, r0, r1, k int, bias []float32, relu bool) {
	if bias == nil && !relu {
		return
	}
	for row := r0; row < r1; row++ {
		off := row*dstStride + dstOff
		EpilogueRow(dst[off:off+k], bias, relu)
	}
}

// EpilogueRow finishes one output row (or row window) of a linear layer
// in place: row[j] + bias[j] (bias window-relative; nil adds nothing),
// then ReLU when relu is set. It is the fused tail of every kernel that
// finishes its own rows.
func EpilogueRow(row, bias []float32, relu bool) {
	if bias != nil {
		bias = bias[:len(row):len(row)]
		if relu {
			for j, v := range row {
				row[j] = ReLU(v + bias[j])
			}
			return
		}
		for j, v := range row {
			row[j] = v + bias[j]
		}
		return
	}
	if relu {
		for j, v := range row {
			row[j] = ReLU(v)
		}
	}
}

// ReLU returns v where v > 0 and +0 elsewhere: −0, the negatives and NaN
// of either sign give +0. It is the one ReLU of every kernel and layer.
// It selects on the float's bits instead of branching on v's sign, which
// a ReLU's inputs flip at random: v > 0 holds exactly when bits−1 <
// 0x7f800000 as uint32 (positive subnormals through +Inf; the wrap takes
// +0 to the top).
func ReLU(v float32) float32 {
	return Keep(v, math.Float32bits(v)-1 < 0x7f800000)
}

// Keep returns v when keep is set and +0 otherwise, without a branch: the
// compiler turns the conditional into a SETcc, and the select is an AND
// with the mask that makes.
func Keep(v float32, keep bool) float32 {
	var m uint32
	if keep {
		m = 1
	}
	return math.Float32frombits(math.Float32bits(v) & -m)
}

// fwhtChunk is the pass-blocking size for large transforms: 2048
// float32s = 8 KiB, comfortably L1-resident. Passes with pair distance
// below the chunk size touch only elements within one aligned chunk, so
// running them chunk-by-chunk performs the identical operations on the
// identical operands as the global pass order — bit-for-bit equal — while
// each chunk is streamed through L1 exactly once for all of its passes.
const fwhtChunk = 2048

// FWHT applies the unnormalized Walsh–Hadamard transform in place.
// len(x) must be a power of two (the caller validates). The first three
// passes (h=1,2,4) are fused into a single radix-8 sweep that keeps each
// 8-element group in registers; later passes run with a 4-way unrolled
// pair loop, blocked to L1-sized chunks for large n. Every butterfly
// computes the same a+b / a-b pair on the same operands as the reference
// triple loop, so the result is bit-identical.
func FWHT(x []float32) {
	n := len(x)
	if n < 8 {
		// Degenerate sizes: the radix-8 sweep needs n ≥ 8.
		for h := 1; h < n; h <<= 1 {
			for i := 0; i < n; i += h << 1 {
				for j := i; j < i+h; j++ {
					a, b := x[j], x[j+h]
					x[j], x[j+h] = a+b, a-b
				}
			}
		}
		return
	}
	for i := 0; i+8 <= n; i += 8 {
		c := x[i : i+8 : i+8]
		x0, x1, x2, x3, x4, x5, x6, x7 := c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
		// h=1 pass
		a0, a1 := x0+x1, x0-x1
		a2, a3 := x2+x3, x2-x3
		a4, a5 := x4+x5, x4-x5
		a6, a7 := x6+x7, x6-x7
		// h=2 pass
		b0, b2 := a0+a2, a0-a2
		b1, b3 := a1+a3, a1-a3
		b4, b6 := a4+a6, a4-a6
		b5, b7 := a5+a7, a5-a7
		// h=4 pass
		c[0], c[4] = b0+b4, b0-b4
		c[1], c[5] = b1+b5, b1-b5
		c[2], c[6] = b2+b6, b2-b6
		c[3], c[7] = b3+b7, b3-b7
	}
	if n <= fwhtChunk {
		fwhtPasses(x, 8)
		return
	}
	// Chunk-local passes (h < fwhtChunk), then the remaining global
	// passes. Chunks are power-of-two aligned, so every pass with pair
	// distance < fwhtChunk stays inside one chunk.
	for i := 0; i < n; i += fwhtChunk {
		fwhtPasses(x[i:i+fwhtChunk], 8)
	}
	for h := fwhtChunk; h < n; h <<= 1 {
		fwhtPass(x, h)
	}
}

// fwhtPasses runs the passes h = h0, 2·h0, … over the whole of x.
func fwhtPasses(x []float32, h0 int) {
	for h := h0; h < len(x); h <<= 1 {
		fwhtPass(x, h)
	}
}

// fwhtPass runs one pass of pair distance h ≥ 4, with the pair loop
// unrolled 4×. Slicing top/bot to exactly h elements hoists the bounds
// checks out of the inner loop.
func fwhtPass(x []float32, h int) {
	n := len(x)
	for i := 0; i < n; i += h << 1 {
		top := x[i : i+h : i+h]
		bot := x[i+h : i+h+h : i+h+h]
		for j := 0; j < h; j += 4 {
			t0, b0 := top[j], bot[j]
			top[j], bot[j] = t0+b0, t0-b0
			t1, b1 := top[j+1], bot[j+1]
			top[j+1], bot[j+1] = t1+b1, t1-b1
			t2, b2 := top[j+2], bot[j+2]
			top[j+2], bot[j+2] = t2+b2, t2-b2
			t3, b3 := top[j+3], bot[j+3]
			top[j+3], bot[j+3] = t3+b3, t3-b3
		}
	}
}
