package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func complexAlmostEqual(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func randomComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return out
}

// NaiveDFT computes the DFT by direct O(N²) summation; it is the oracle
// for FFT correctness tests.
func NaiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}

// DFTMatrix returns the dense N×N DFT matrix F with
// F[k][t] = exp(-2πi·k·t/N).
func DFTMatrix(n int) [][]complex128 {
	out := make([][]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = make([]complex128, n)
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			out[k][t] = cmplx.Exp(complex(0, angle))
		}
	}
	return out
}

// factorEntry is one stored coefficient of a Cooley–Tukey butterfly
// factor: the factor maps in[col] into out[row] with weight w.
type factorEntry struct {
	row, col int
	w        complex128
}

// CooleyTukeyFactor returns the s-th butterfly factor of the radix-2 DIT
// FFT of size n as its stored entries. Stage s ∈ [1, log2 n] combines
// blocks of size 2^s:
//
//	F_stage = diag over blocks of [ I  Ω ; I  -Ω ]
//
// matching Equation (1) of the paper.
func CooleyTukeyFactor(n, s int) []factorEntry {
	stages := Log2(n)
	if s < 1 || s > stages {
		panic(fmt.Sprintf("fft: stage %d out of range [1,%d]", s, stages))
	}
	size := 1 << s
	half := size / 2
	var out []factorEntry
	for start := 0; start < n; start += size {
		for k := 0; k < half; k++ {
			w := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(size)))
			top, bot := start+k, start+k+half
			out = append(out,
				// out[top] = in[top] + w·in[bot]
				factorEntry{top, top, 1}, factorEntry{top, bot, w},
				// out[bot] = in[top] - w·in[bot]
				factorEntry{bot, top, 1}, factorEntry{bot, bot, -w})
		}
	}
	return out
}

// ApplyFactors runs x through the full Cooley–Tukey pipeline: bit-reversal
// permutation followed by all log2(n) butterfly factor stages. It must
// reproduce FFT(x) up to rounding, which validates that a product of
// explicit butterfly factors is the DFT — the structural claim behind
// butterfly factorizations.
func ApplyFactors(x []complex128) []complex128 {
	n := len(x)
	cur := make([]complex128, n)
	for i, p := range BitReverse(n) {
		cur[i] = x[p]
	}
	for s := 1; s <= Log2(n); s++ {
		next := make([]complex128, n)
		for _, e := range CooleyTukeyFactor(n, s) {
			next[e.row] += e.w * cur[e.col]
		}
		cur = next
	}
	return cur
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 1023} {
		if IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = true", n)
		}
	}
}

func TestLog2(t *testing.T) {
	if Log2(1024) != 10 || Log2(1) != 0 {
		t.Fatal("Log2 wrong")
	}
}

func TestBitReverseN8(t *testing.T) {
	want := []int{0, 4, 2, 6, 1, 5, 3, 7}
	got := BitReverse(8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BitReverse(8) = %v, want %v", got, want)
		}
	}
}

func TestBitReverseIsInvolution(t *testing.T) {
	perm := BitReverse(64)
	for i, p := range perm {
		if perm[p] != i {
			t.Fatalf("bit reversal not an involution at %d", i)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 32, 128} {
		x := randomComplex(rng, n)
		want := NaiveDFT(x)
		got := FFT(x)
		if !complexAlmostEqual(want, got, 1e-9*float64(n)) {
			t.Fatalf("n=%d: FFT != naive DFT", n)
		}
	}
}

func TestFFTKnownImpulse(t *testing.T) {
	// DFT of impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	got := FFT(x)
	for i, v := range got {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT[%d] = %v, want 1", i, v)
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randomComplex(rng, 64)
	back := IFFT(FFT(x))
	if !complexAlmostEqual(x, back, 1e-10) {
		t.Fatal("IFFT(FFT(x)) != x")
	}
}

func TestFFTPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT of length 6 did not panic")
		}
	}()
	FFT(make([]complex128, 6))
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randomComplex(rng, 16)
	cp := append([]complex128(nil), x...)
	FFT(x)
	if !complexAlmostEqual(x, cp, 0) {
		t.Fatal("FFT mutated its input")
	}
}

func TestCircularConvolveKnown(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	b := []float32{1, 0, 0, 0}
	got := CircularConvolve(a, b)
	for i := range a {
		if math.Abs(float64(got[i]-a[i])) > 1e-5 {
			t.Fatalf("convolution with delta: got %v", got)
		}
	}
	// shift by one: b = delta at 1 rotates a.
	b = []float32{0, 1, 0, 0}
	got = CircularConvolve(a, b)
	want := []float32{4, 1, 2, 3}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-5 {
			t.Fatalf("shifted conv: got %v, want %v", got, want)
		}
	}
}

func TestCircularConvolveMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 32
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = rng.Float32()*2 - 1
		b[i] = rng.Float32()*2 - 1
	}
	got := CircularConvolve(a, b)
	for k := 0; k < n; k++ {
		var s float64
		for t2 := 0; t2 < n; t2++ {
			s += float64(a[t2]) * float64(b[(k-t2+n)%n])
		}
		if math.Abs(float64(got[k])-s) > 1e-4 {
			t.Fatalf("conv[%d] = %v, want %v", k, got[k], s)
		}
	}
}

// CircularCorrelate returns the circular cross-correlation c[k] =
// Σ_t a[t]·b[t+k mod n], the adjoint of CircularConvolve: the oracle of
// the circulant layer's Backward, which composes it from plan primitives.
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

func TestCircularCorrelateIsAdjoint(t *testing.T) {
	// <conv(a, x), y> == <x, corr(a, y)> — adjoint identity the circulant
	// layer backward relies on.
	rng := rand.New(rand.NewSource(5))
	n := 16
	a := make([]float32, n)
	x := make([]float32, n)
	y := make([]float32, n)
	for i := 0; i < n; i++ {
		a[i] = rng.Float32()*2 - 1
		x[i] = rng.Float32()*2 - 1
		y[i] = rng.Float32()*2 - 1
	}
	cx := CircularConvolve(a, x)
	cy := CircularCorrelate(a, y)
	var lhs, rhs float64
	for i := 0; i < n; i++ {
		lhs += float64(cx[i]) * float64(y[i])
		rhs += float64(x[i]) * float64(cy[i])
	}
	if math.Abs(lhs-rhs) > 1e-4 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestDFTMatrixMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 16
	x := randomComplex(rng, n)
	F := DFTMatrix(n)
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		for t2 := 0; t2 < n; t2++ {
			want[k] += F[k][t2] * x[t2]
		}
	}
	if !complexAlmostEqual(want, FFT(x), 1e-9) {
		t.Fatal("DFT matrix multiply != FFT")
	}
}

// The load-bearing structural test: the product of the log2(N) explicit
// Cooley–Tukey butterfly factors (applied to the bit-reversed input) IS the
// DFT — the foundation of the butterfly factorization (paper Eq. 1–2).
func TestCooleyTukeyFactorsReproduceDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 4, 8, 16, 64} {
		x := randomComplex(rng, n)
		want := FFT(x)
		got := ApplyFactors(x)
		if !complexAlmostEqual(want, got, 1e-6*float64(n)) {
			t.Fatalf("n=%d: butterfly factor product != DFT", n)
		}
	}
}

func TestCooleyTukeyFactorSparsity(t *testing.T) {
	// Each factor must have exactly 2 nonzeros per row (the O(N) property
	// that gives butterfly its O(N log N) total cost).
	n := 32
	for s := 1; s <= Log2(n); s++ {
		counts := make([]int, n)
		seen := make(map[[2]int]bool)
		for _, e := range CooleyTukeyFactor(n, s) {
			key := [2]int{e.row, e.col}
			if !seen[key] {
				seen[key] = true
				counts[e.row]++
			}
		}
		for i, c := range counts {
			if c != 2 {
				t.Fatalf("stage %d row %d has %d nonzero positions, want 2", s, i, c)
			}
		}
	}
}

func TestCooleyTukeyFactorStageBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("stage 0 did not panic")
		}
	}()
	CooleyTukeyFactor(8, 0)
}

// Property: Parseval — energy preserved up to factor n.
func TestParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(6))
		x := randomComplex(rng, n)
		X := FFT(x)
		var ex, eX float64
		for i := 0; i < n; i++ {
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			eX += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		return math.Abs(eX-float64(n)*ex) < 1e-6*(1+eX)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: FFT is linear.
func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(5))
		x := randomComplex(rng, n)
		y := randomComplex(rng, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		fs := FFT(sum)
		fx := FFT(x)
		fy := FFT(y)
		for i := range fs {
			if cmplx.Abs(fs[i]-fx[i]-fy[i]) > 1e-9*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := randomComplex(rng, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

// TestPlanBitIdenticalToFFT checks the in-place plan transform against the
// allocating FFT/IFFT/CircularConvolve/CircularCorrelate, exactly — the
// guarantee the circulant layer's compiled inference path and training
// passes rely on.
func TestPlanBitIdenticalToFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 8, 64, 256} {
		p := NewPlan(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := FFT(x)
		buf := append([]complex128(nil), x...)
		p.Transform(buf)
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("n=%d: Transform[%d] = %v, want %v (bit-exact)", n, i, buf[i], want[i])
			}
		}
		wantInv := IFFT(x)
		buf = append(buf[:0], x...)
		p.Inverse(buf)
		for i := range wantInv {
			if buf[i] != wantInv[i] {
				t.Fatalf("n=%d: Inverse[%d] = %v, want %v (bit-exact)", n, i, buf[i], wantInv[i])
			}
		}

		// Convolution via plan primitives (the circulant layer's ApplyInto
		// composition: transform both operands, multiply with the first
		// operand on the left, inverse) must be bit-identical to
		// CircularConvolve.
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = rng.Float32()*2 - 1
			b[i] = rng.Float32()*2 - 1
		}
		wantConv := CircularConvolve(a, b)
		ca := make([]complex128, n)
		cb := make([]complex128, n)
		for i := 0; i < n; i++ {
			ca[i] = complex(float64(a[i]), 0)
			cb[i] = complex(float64(b[i]), 0)
		}
		p.Transform(ca)
		p.Transform(cb)
		for i := range cb {
			cb[i] = ca[i] * cb[i]
		}
		p.Inverse(cb)
		for i := range wantConv {
			if got := float32(real(cb[i])); got != wantConv[i] {
				t.Fatalf("n=%d: plan convolution[%d] = %v, want %v (bit-exact)", n, i, got, wantConv[i])
			}
		}

		// Correlation via plan primitives (the circulant layer's Backward
		// composition: conjugate the first operand's transform, multiply,
		// inverse) must be bit-identical to CircularCorrelate.
		wantCorr := CircularCorrelate(a, b)
		for i := 0; i < n; i++ {
			cb[i] = complex(float64(b[i]), 0)
		}
		p.Transform(cb)
		for i := range cb {
			cb[i] = cmplx.Conj(ca[i]) * cb[i]
		}
		p.Inverse(cb)
		for i := range wantCorr {
			if got := float32(real(cb[i])); got != wantCorr[i] {
				t.Fatalf("n=%d: plan correlation[%d] = %v, want %v (bit-exact)", n, i, got, wantCorr[i])
			}
		}
	}
}
