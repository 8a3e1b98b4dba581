package microkernel

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// lane is one implementation of MatMul's product and of AccRow: the Go
// tile and Go row accumulate, or the AVX2 lane.
type lane struct {
	name    string
	product func(dst []float32, dstStride, dstOff int, a []float32, aStride, r0, r1 int, packed []float32, n, k int)
	accRow  func(dst, a []float32, aStride int, b []float32, bStride, n, k int, skipZero bool)
}

// matMul is MatMul with the product forced onto l.
func (l lane) matMul(dst []float32, dstStride, dstOff int, a []float32, aStride, r0, r1 int, packed []float32, n, k int, bias []float32, relu bool) {
	l.product(dst, dstStride, dstOff, a, aStride, r0, r1, packed, n, k)
	epilogueRows(dst, dstStride, dstOff, r0, r1, k, bias, relu)
}

var (
	goLane   = lane{"go", productGo, accRowGo}
	avx2Lane = lane{"avx2", productAVX2, accRowAVX2Slices}
)

// accRowAVX2Slices runs AccRow's AVX2 lane on checked slice operands.
func accRowAVX2Slices(dst, a []float32, aStride int, b []float32, bStride, n, k int, skipZero bool) {
	if n > 0 && k > 0 {
		accRowAVX2(&dst[0], &a[0], aStride, &b[0], bStride, n, k, skipZero)
	}
}

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

// refAccRow is AccRow's reference loop: one term per pass over dst, p
// ascending, skipping a zero a[p] when asked.
func refAccRow(dst, a []float32, aStride int, b []float32, bStride, n, k int, skipZero bool) {
	for p := 0; p < n; p++ {
		av := a[p*aStride]
		if skipZero && av == 0 {
			continue
		}
		for j := 0; j < k; j++ {
			dst[j] += av * b[p*bStride+j]
		}
	}
}

// sameBits reports whether got and want hold the same bits, any NaN
// matching any NaN.
func sameBits(got, want float32) bool {
	if want != want {
		return got != got
	}
	return math.Float32bits(got) == math.Float32bits(want)
}

// TestAccRowMatchesReference runs both lanes and AccRow itself over
// shapes that cover every split of k into 32-column blocks, 8-lane
// chunks and a masked last group, strided a and overlapping b rows, with
// zeros of both signs in a and dst and infinities and NaN in b, and
// demands the reference loop's bits, the sign of zero included.
func TestAccRowMatchesReference(t *testing.T) {
	t.Logf("AccRow lane on this host: avx2=%v", haveAVX2)
	lanes := []lane{goLane, avx2Lane, {name: "AccRow", accRow: AccRow}}
	rng := rand.New(rand.NewSource(6))
	negZero := float32(math.Copysign(0, -1))
	for _, l := range lanes {
		if l.name == "avx2" && !haveAVX2 {
			t.Logf("no AVX2 lane in this build: skipping its half")
			continue
		}
		for _, sh := range [][4]int{ // n, k, aStride, bStride
			{1, 1, 1, 1}, {3, 7, 1, 7}, {5, 8, 2, 8}, {6, 9, 1, 12}, {9, 31, 3, 31},
			{4, 32, 1, 32}, {7, 33, 1, 40}, {64, 50, 64, 50}, {50, 64, 1, 1024},
			{32, 100, 1, 100}, {13, 96, 0, 96}, {11, 20, 1, 5}, {0, 10, 1, 10}, {10, 0, 1, 0},
		} {
			n, k, as, bs := sh[0], sh[1], sh[2], sh[3]
			a := randSlice(rng, max(1, (n-1)*as+1))
			for i := range a {
				switch rng.Intn(4) {
				case 0:
					a[i] = 0
				case 1:
					a[i] = negZero
				}
			}
			b := randSlice(rng, max(1, (n-1)*bs+k))
			if n > 0 && k > 0 {
				// The last term is a zero against ±Inf and NaN at both
				// ends of its row: skipped, it leaves those columns
				// finite; kept, it makes them NaN.
				a[(n-1)*as] = negZero
				last := b[(n-1)*bs : (n-1)*bs+k]
				last[0], last[k-1] = float32(math.Inf(1)), float32(math.NaN())
				if k > 1 {
					last[k-2] = float32(math.Inf(-1))
				}
			}
			dst := randSlice(rng, k)
			for j := 0; j < k; j += 3 {
				dst[j] = negZero
			}
			for _, skip := range []bool{false, true} {
				want := append([]float32(nil), dst...)
				refAccRow(want, a, as, b, bs, n, k, skip)
				got := append([]float32(nil), dst...)
				l.accRow(got, a, as, b, bs, n, k, skip)
				for j := range want {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("%s n=%d k=%d aStride=%d bStride=%d skip=%v: dst[%d] = %v (%#x), want %v (%#x)",
							l.name, n, k, as, bs, skip, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
					}
				}
			}
		}
	}
}

// TestAccRowChecksOperands: AccRow does nothing for n or k of 0, and
// panics, before either lane runs, on a negative stride or an operand
// too short for the terms it names.
func TestAccRowChecksOperands(t *testing.T) {
	AccRow(nil, nil, 1, nil, 1, 0, 5, false)
	AccRow(nil, nil, 1, nil, 1, 5, 0, false)
	dst, a, b := make([]float32, 8), make([]float32, 4), make([]float32, 32)
	for name, run := range map[string]func(){
		"negative aStride": func() { AccRow(dst, a, -1, b, 8, 4, 8, false) },
		"negative bStride": func() { AccRow(dst, a, 1, b, -8, 4, 8, false) },
		"short dst":        func() { AccRow(dst[:7], a, 1, b, 8, 4, 8, false) },
		"short a":          func() { AccRow(dst, a, 2, b, 8, 4, 8, false) },
		"short b":          func() { AccRow(dst, a, 1, b, 9, 4, 8, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AccRow did not panic", name)
				}
			}()
			run()
		}()
	}
}

// FuzzAccRowLanes checks AccRow's AVX2 lane against its Go lane, and the
// Go lane against the reference loop, over n in 0–130 and k in 0–100
// (every split into 32-column blocks, 8-lane chunks and a masked last
// group), a strides 0–5, b strides of k and more, the zero skip on and
// off, and operands and dst cells with ±0, subnormals, ±Inf and NaN
// (zeros in a made common, so the skip has terms to pass over). A NaN
// must be NaN on every side; every other cell must match bit for bit,
// and the guard cells around dst[:k] must keep their bits.
func FuzzAccRowLanes(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(50), uint8(64), uint8(0), uint8(0))
	f.Add(int64(2), uint8(50), uint8(64), uint8(1), uint8(200), uint8(1))
	f.Add(int64(3), uint8(32), uint8(100), uint8(1), uint8(0), uint8(3))
	f.Add(int64(4), uint8(130), uint8(33), uint8(2), uint8(7), uint8(2))
	f.Add(int64(5), uint8(0), uint8(9), uint8(0), uint8(1), uint8(1))
	f.Add(int64(6), uint8(7), uint8(0), uint8(3), uint8(2), uint8(0))
	f.Add(int64(7), uint8(5), uint8(8), uint8(5), uint8(9), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw, strideRaw, padRaw, mode uint8) {
		skipWithoutAVX2(t)
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 131
		k := int(kRaw) % 101
		aStride := int(strideRaw) % 6
		bStride := k + int(padRaw)%40
		skip := mode&1 != 0
		zeros := mode&2 != 0
		lo := 1 + int(padRaw>>4)%4 // guard cells left of dst[:k]
		hi := 1 + int(strideRaw>>4)%4

		a := make([]float32, max(1, (n-1)*aStride+1))
		for i := range a {
			a[i] = fuzzValue(rng)
			if zeros && rng.Intn(3) == 0 {
				a[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
			}
		}
		b := make([]float32, max(1, (n-1)*bStride+k))
		for i := range b {
			b[i] = fuzzValue(rng)
		}
		dst0 := make([]float32, lo+k+hi)
		for i := range dst0 {
			dst0[i] = guard
		}
		for j := 0; j < k; j++ {
			dst0[lo+j] = fuzzValue(rng)
		}

		run := func(acc func(dst, a []float32, aStride int, b []float32, bStride, n, k int, skipZero bool)) []float32 {
			buf := append([]float32(nil), dst0...)
			acc(buf[lo:lo+k], a, aStride, b, bStride, n, k, skip)
			return buf
		}
		ref, want, got := run(refAccRow), run(goLane.accRow), run(avx2Lane.accRow)
		for i := range want {
			if i < lo || i >= lo+k {
				if math.Float32bits(want[i]) != math.Float32bits(guard) || math.Float32bits(got[i]) != math.Float32bits(guard) {
					t.Fatalf("n=%d k=%d: guard cell %d written: go %#x, avx2 %#x", n, k, i, math.Float32bits(want[i]), math.Float32bits(got[i]))
				}
				continue
			}
			if !sameBits(want[i], ref[i]) {
				t.Fatalf("n=%d k=%d aStride=%d bStride=%d skip=%v: dst[%d] = %v (%#x) on the Go lane, %v (%#x) by the reference loop",
					n, k, aStride, bStride, skip, i-lo, want[i], math.Float32bits(want[i]), ref[i], math.Float32bits(ref[i]))
			}
			if !sameBits(got[i], want[i]) {
				t.Fatalf("n=%d k=%d aStride=%d bStride=%d skip=%v: dst[%d] = %v (%#x) on avx2, %v (%#x) on the Go lane",
					n, k, aStride, bStride, skip, i-lo, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	})
}
