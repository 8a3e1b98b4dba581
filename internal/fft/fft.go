// Package fft implements a radix-2 complex FFT and circular convolution
// of real vectors, the kernels of the circulant baseline layer. Its tests
// also check the paper's Equation (1): the explicit Cooley–Tukey
// butterfly factors multiply to the DFT.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// Log2 returns log2(n) for a power of two n; panics otherwise.
func Log2(n int) int {
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("fft: %d is not a power of two", n))
	}
	l := 0
	for m := n; m > 1; m >>= 1 {
		l++
	}
	return l
}

// BitReverse returns the bit-reversal permutation of {0..n-1} for a
// power-of-two n: perm[i] = reverse of the log2(n)-bit representation of i.
func BitReverse(n int) []int {
	bits := Log2(n)
	perm := make([]int, n)
	for i := range perm {
		r := 0
		for b := 0; b < bits; b++ {
			r = (r << 1) | ((i >> b) & 1)
		}
		perm[i] = r
	}
	return perm
}

// FFT computes the in-order forward DFT of x (length must be a power of
// two) using iterative radix-2 Cooley–Tukey. The input is not modified.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	out := make([]complex128, n)
	perm := BitReverse(n)
	for i, p := range perm {
		out[i] = x[p]
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		w := cmplx.Exp(complex(0, -2*math.Pi/float64(size)))
		for start := 0; start < n; start += size {
			tw := complex(1, 0)
			for k := 0; k < half; k++ {
				a := out[start+k]
				b := out[start+k+half] * tw
				out[start+k] = a + b
				out[start+k+half] = a - b
				tw *= w
			}
		}
	}
	return out
}

// IFFT computes the inverse DFT (normalized by 1/n).
func IFFT(x []complex128) []complex128 {
	n := len(x)
	conj := make([]complex128, n)
	for i, v := range x {
		conj[i] = cmplx.Conj(v)
	}
	y := FFT(conj)
	inv := 1 / float64(n)
	for i, v := range y {
		y[i] = complex(real(v)*inv, -imag(v)*inv)
	}
	return y
}

// CircularConvolve returns the circular convolution of real vectors a and b
// (equal power-of-two length) computed via FFT: ifft(fft(a)·fft(b)).
// This is the O(N log N) kernel of the circulant layer.
func CircularConvolve(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("fft: CircularConvolve length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	ca := make([]complex128, n)
	cb := make([]complex128, n)
	for i := range a {
		ca[i] = complex(float64(a[i]), 0)
		cb[i] = complex(float64(b[i]), 0)
	}
	fa := FFT(ca)
	fb := FFT(cb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	res := IFFT(fa)
	out := make([]float32, n)
	for i := range res {
		out[i] = float32(real(res[i]))
	}
	return out
}

// CircularCorrelate returns the circular cross-correlation c[k] =
// Σ_t a[t]·b[t+k mod n]; it is the adjoint of CircularConvolve and is used
// by the circulant layer's backward pass.
func CircularCorrelate(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("fft: CircularCorrelate length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	ca := make([]complex128, n)
	cb := make([]complex128, n)
	for i := range a {
		ca[i] = complex(float64(a[i]), 0)
		cb[i] = complex(float64(b[i]), 0)
	}
	fa := FFT(ca)
	fb := FFT(cb)
	for i := range fa {
		fa[i] = cmplx.Conj(fa[i]) * fb[i]
	}
	res := IFFT(fa)
	out := make([]float32, n)
	for i := range res {
		out[i] = float32(real(res[i]))
	}
	return out
}

// Plan precomputes the bit-reversal permutation of one FFT size so the
// transform can run in place over caller-owned buffers — the
// allocation-free path the circulant layer's compiled inference plan uses.
// Transform and Inverse perform exactly the same arithmetic as FFT and
// IFFT, so results are bit-identical to the allocating path.
type Plan struct {
	n    int
	perm []int
}

// NewPlan builds a plan for power-of-two size n.
func NewPlan(n int) *Plan {
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("fft: plan size %d is not a power of two", n))
	}
	return &Plan{n: n, perm: BitReverse(n)}
}

// Transform computes the forward DFT of buf (len == the plan size) in
// place.
func (p *Plan) Transform(buf []complex128) {
	n := p.n
	if len(buf) != n {
		panic(fmt.Sprintf("fft: plan size %d, buffer length %d", n, len(buf)))
	}
	// The bit-reversal permutation is an involution, so swapping each
	// i < perm[i] pair applies it in place.
	for i, pi := range p.perm {
		if i < pi {
			buf[i], buf[pi] = buf[pi], buf[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		w := cmplx.Exp(complex(0, -2*math.Pi/float64(size)))
		for start := 0; start < n; start += size {
			tw := complex(1, 0)
			for k := 0; k < half; k++ {
				a := buf[start+k]
				b := buf[start+k+half] * tw
				buf[start+k] = a + b
				buf[start+k+half] = a - b
				tw *= w
			}
		}
	}
}

// Inverse computes the inverse DFT of buf (normalized by 1/n) in place,
// via the same conjugation identity IFFT uses.
func (p *Plan) Inverse(buf []complex128) {
	for i, v := range buf {
		buf[i] = cmplx.Conj(v)
	}
	p.Transform(buf)
	inv := 1 / float64(p.n)
	for i, v := range buf {
		buf[i] = complex(real(v)*inv, -imag(v)*inv)
	}
}
