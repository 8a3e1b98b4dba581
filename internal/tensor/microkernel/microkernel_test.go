package microkernel

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// lane is one implementation of MatMul's product: the Go tile or the
// AVX2 lane.
type lane struct {
	name    string
	product func(dst []float32, dstStride, dstOff int, a []float32, aStride, r0, r1 int, packed []float32, n, k int)
}

// matMul is MatMul with the product forced onto l.
func (l lane) matMul(dst []float32, dstStride, dstOff int, a []float32, aStride, r0, r1 int, packed []float32, n, k int, bias []float32, relu bool) {
	l.product(dst, dstStride, dstOff, a, aStride, r0, r1, packed, n, k)
	epilogueRows(dst, dstStride, dstOff, r0, r1, k, bias, relu)
}

var (
	goLane   = lane{"go", productGo}
	avx2Lane = lane{"avx2", productAVX2}
)

// skipWithoutAVX2 skips t, saying why, where this build or host has no
// AVX2 lane; the Go tile's half of each test still runs.
func skipWithoutAVX2(t *testing.T) {
	t.Helper()
	if !haveAVX2 {
		t.Skipf("no AVX2 lane: GOARCH=%s, and either the purego tag or a CPU/OS without AVX2 and YMM state", runtime.GOARCH)
	}
}

// forEachLane runs f as a subtest on the Go tile and on the AVX2 lane.
func forEachLane(t *testing.T, f func(t *testing.T, l lane)) {
	t.Run(goLane.name, func(t *testing.T) { f(t, goLane) })
	t.Run(avx2Lane.name, func(t *testing.T) {
		skipWithoutAVX2(t)
		f(t, avx2Lane)
	})
}

// TestMatMulHostLane runs MatMul itself, on the lane init chose, against
// the reference chain, and logs which lane that is.
func TestMatMulHostLane(t *testing.T) {
	t.Logf("MatMul lane on this host: %s", Variant())
	if (Variant() == "avx2_1x32") != haveAVX2 {
		t.Fatalf("Variant() = %q with haveAVX2=%v", Variant(), haveAVX2)
	}
	rng := rand.New(rand.NewSource(5))
	m, n, k := 3, 70, 45
	a, b, bias := randSlice(rng, m*n), randSlice(rng, n*k), randSlice(rng, k)
	packed := make([]float32, PackedLen(n, k))
	PackB(packed, b, n, k)
	want := refMatMul(a, b, m, n, k, bias, true)
	got := make([]float32, m*k)
	MatMul(got, k, 0, a, n, 0, m, packed, n, k, bias, true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// refMatMul is the reference accumulation: per element, Σ_p a[p]*b[p][j]
// with p ascending from zero, then bias and the reference ReLU semantic.
// It deliberately has no zero-skip so it states the pure chain the tiled
// kernel must reproduce; zero-skipping only perturbs the sign of exact
// zeros, which float comparison treats as equal.
func refMatMul(a, b []float32, m, n, k int, bias []float32, relu bool) []float32 {
	out := make([]float32, m*k)
	for i := 0; i < m; i++ {
		for p := 0; p < n; p++ {
			av := a[i*n+p]
			for j := 0; j < k; j++ {
				out[i*k+j] += av * b[p*k+j]
			}
		}
		for j := 0; j < k; j++ {
			v := out[i*k+j]
			if bias != nil {
				v += bias[j]
			}
			if relu && !(v > 0) {
				v = 0
			}
			out[i*k+j] = v
		}
	}
	return out
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

// TestMatMulMatchesReference sweeps random shapes — including ragged
// edges in every dimension — and demands float equality (which is bit
// equality up to the sign of exact zeros) against the reference chain.
func TestMatMulMatchesReference(t *testing.T) {
	forEachLane(t, testMatMulMatchesReference)
}

func testMatMulMatchesReference(t *testing.T, l lane) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{
		{1, 1, 1}, {1, 8, 8}, {1, 16, 10}, {2, 3, 5}, {3, 7, 9},
		{4, 8, 8}, {5, 13, 17}, {7, 64, 10}, {8, 64, 64}, {16, 33, 24},
		{64, 256, 256}, {1, 1024, 10}, {2, 5, 32}, {3, 9, 40}, {2, 17, 63},
		{1, 0, 12},
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		a := randSlice(rng, m*n)
		b := randSlice(rng, n*k)
		packed := make([]float32, PackedLen(n, k))
		PackB(packed, b, n, k)
		for _, relu := range []bool{false, true} {
			for _, withBias := range []bool{false, true} {
				var bias []float32
				if withBias {
					bias = randSlice(rng, k)
				}
				want := refMatMul(a, b, m, n, k, bias, relu)
				got := make([]float32, m*k)
				l.matMul(got, k, 0, a, n, 0, m, packed, n, k, bias, relu)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("m=%d n=%d k=%d bias=%v relu=%v: out[%d] = %v, want %v",
							m, n, k, withBias, relu, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMatMulColumnWindow checks the dstOff/dstStride form: a window of a
// wider output must receive the same values, and bytes outside the
// window must be untouched.
func TestMatMulColumnWindow(t *testing.T) {
	forEachLane(t, testMatMulColumnWindow)
}

func testMatMulColumnWindow(t *testing.T, l lane) {
	rng := rand.New(rand.NewSource(2))
	m, n, k, full, off := 5, 13, 10, 32, 7
	a := randSlice(rng, m*n)
	b := randSlice(rng, n*k)
	bias := randSlice(rng, k)
	packed := make([]float32, PackedLen(n, k))
	PackB(packed, b, n, k)
	want := refMatMul(a, b, m, n, k, bias, true)

	dst := make([]float32, m*full)
	for i := range dst {
		dst[i] = 99
	}
	l.matMul(dst, full, off, a, n, 0, m, packed, n, k, bias, true)
	for i := 0; i < m; i++ {
		for j := 0; j < full; j++ {
			got := dst[i*full+j]
			if j >= off && j < off+k {
				if got != want[i*k+(j-off)] {
					t.Fatalf("window [%d,%d] = %v, want %v", i, j, got, want[i*k+(j-off)])
				}
			} else if got != 99 {
				t.Fatalf("outside window [%d,%d] clobbered: %v", i, j, got)
			}
		}
	}
}

// TestMatMulRowRange checks partial row ranges (the parallel partition
// unit) leave other rows untouched.
func TestMatMulRowRange(t *testing.T) {
	forEachLane(t, testMatMulRowRange)
}

func testMatMulRowRange(t *testing.T, l lane) {
	rng := rand.New(rand.NewSource(3))
	m, n, k := 9, 12, 11
	a := randSlice(rng, m*n)
	b := randSlice(rng, n*k)
	packed := make([]float32, PackedLen(n, k))
	PackB(packed, b, n, k)
	want := refMatMul(a, b, m, n, k, nil, false)

	dst := make([]float32, m*k)
	for i := range dst {
		dst[i] = -5
	}
	r0, r1 := 3, 7
	l.matMul(dst, k, 0, a, n, r0, r1, packed, n, k, nil, false)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			got := dst[i*k+j]
			if i >= r0 && i < r1 {
				if got != want[i*k+j] {
					t.Fatalf("row %d col %d = %v, want %v", i, j, got, want[i*k+j])
				}
			} else if got != -5 {
				t.Fatalf("row %d outside [%d,%d) clobbered", i, r0, r1)
			}
		}
	}
}

// refFWHT is the reference triple loop from internal/hadamard.
func refFWHT(x []float32) {
	n := len(x)
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				a, b := x[j], x[j+h]
				x[j], x[j+h] = a+b, a-b
			}
		}
	}
}

// TestFWHTMatchesReference covers the degenerate (n<8), radix-8-only,
// unrolled-pass, and chunk-blocked regimes, demanding bit equality.
func TestFWHTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 1; n <= 1<<14; n <<= 1 {
		x := randSlice(rng, n)
		want := append([]float32(nil), x...)
		refFWHT(want)
		FWHT(x)
		for i := range x {
			if x[i] != want[i] {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], want[i])
			}
		}
	}
}

// fuzzValue draws one operand: mostly finite values over a wide range of
// exponents (so products and sums reach the subnormals), and about one
// in eight from the IEEE edge cases.
func fuzzValue(rng *rand.Rand) float32 {
	if rng.Intn(8) == 0 {
		edges := []float32{
			0, float32(math.Copysign(0, -1)),
			math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
			math.Float32frombits(0x007fffff), // largest subnormal
			math.MaxFloat32, -math.MaxFloat32,
			float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		}
		return edges[rng.Intn(len(edges))]
	}
	return (rng.Float32()*2 - 1) * float32(math.Ldexp(1, rng.Intn(100)-75))
}

// guard marks the cells around an output window; a lane must leave its
// bits as they are.
var guard = math.Float32frombits(0x7fc0dead)

// FuzzMatMulLanes checks the AVX2 lane against the Go tile over n in
// 0–300 and k in 1–70 (whole groups of four panels, leftover panels,
// ragged tails and k < NR), row ranges inside a taller output, column
// windows with guard cells on both sides, strided rows of a, bias and
// ReLU, and operands with ±0, subnormals, ±Inf and NaN. A NaN output
// must be NaN on both lanes; every other output must match bit for
// bit, and every guard cell must keep its bits.
func FuzzMatMulLanes(f *testing.F) {
	f.Add(int64(1), uint16(1024), uint8(9), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint16(0), uint8(11), uint8(2), uint8(1), uint8(3), uint8(3))
	f.Add(int64(3), uint16(64), uint8(31), uint8(5), uint8(2), uint8(7), uint8(2))
	f.Add(int64(4), uint16(17), uint8(39), uint8(3), uint8(0), uint8(1), uint8(1))
	f.Add(int64(5), uint16(300), uint8(69), uint8(1), uint8(1), uint8(2), uint8(0))
	f.Add(int64(6), uint16(7), uint8(4), uint8(4), uint8(3), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, kRaw, rowsRaw, spanRaw, padRaw, mode uint8) {
		skipWithoutAVX2(t)
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 301
		k := 1 + int(kRaw)%70
		m := 1 + int(rowsRaw)%6                     // rows of a and of the output
		r0 := int(spanRaw) % m                      // first row computed
		r1 := r0 + 1 + int(spanRaw>>3)%(m-r0)       // one past the last
		off := 1 + int(padRaw)%5                    // guard columns left of the window
		dstStride := off + k + 1 + int(padRaw>>4)%4 // and at least one right of it
		aStride := n + int(padRaw>>3)%3
		bias := []float32(nil)
		if mode&1 != 0 {
			bias = make([]float32, k)
			for j := range bias {
				bias[j] = fuzzValue(rng)
			}
		}
		relu := mode&2 != 0

		a := make([]float32, m*aStride)
		for i := range a {
			a[i] = fuzzValue(rng)
		}
		b := make([]float32, n*k)
		for i := range b {
			b[i] = fuzzValue(rng)
		}
		packed := make([]float32, PackedLen(n, k))
		PackB(packed, b, n, k)

		run := func(l lane) []float32 {
			dst := make([]float32, m*dstStride)
			for i := range dst {
				dst[i] = guard
			}
			l.matMul(dst, dstStride, off, a, aStride, r0, r1, packed, n, k, bias, relu)
			return dst
		}
		want, got := run(goLane), run(avx2Lane)
		for i := range want {
			row, col := i/dstStride, i%dstStride
			inWindow := row >= r0 && row < r1 && col >= off && col < off+k
			w, g := want[i], got[i]
			switch {
			case !inWindow && (math.Float32bits(w) != math.Float32bits(guard) || math.Float32bits(g) != math.Float32bits(guard)):
				t.Fatalf("n=%d k=%d rows [%d,%d) of %d, window [%d,%d): guard cell (%d,%d) written: go %#x, avx2 %#x",
					n, k, r0, r1, m, off, off+k, row, col, math.Float32bits(w), math.Float32bits(g))
			case inWindow && n == 0 && bias == nil && w != 0:
				t.Fatalf("n=0 k=%d: out(%d,%d) = %v on the Go tile, want 0", k, row, col, w)
			case inWindow && w != w:
				if g == g {
					t.Fatalf("n=%d k=%d: out(%d,%d) = %v on avx2, NaN on the Go tile", n, k, row, col, g)
				}
			case inWindow && math.Float32bits(w) != math.Float32bits(g):
				t.Fatalf("n=%d k=%d bias=%v relu=%v: out(%d,%d) = %v (%#x) on avx2, %v (%#x) on the Go tile",
					n, k, bias != nil, relu, row, col, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	})
}
