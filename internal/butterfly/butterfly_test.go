package butterfly

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hadamard"
	"repro/internal/tensor"
)

func TestParamCountMatchesPaperScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Rotation parameterization at N=1024: (N/2)·log2 N = 5120 structured
	// params; with the SHL's bias(1024)+W2(10240)+bias(10) this gives
	// 16,394 ≈ the paper's 16,390 (98.5% compression).
	b := New(1024, Rotation, rng)
	if got := b.ParamCount(); got != 5120 {
		t.Fatalf("rotation ParamCount = %d, want 5120", got)
	}
	b2 := New(1024, Dense2x2, rng)
	if got := b2.ParamCount(); got != 20480 {
		t.Fatalf("dense2x2 ParamCount = %d, want 20480", got)
	}
}

func TestNewPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(12) did not panic")
		}
	}()
	New(12, Dense2x2, rand.New(rand.NewSource(1)))
}

func TestIdentityButterflyIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, param := range []Parameterization{Dense2x2, Rotation} {
		b := NewIdentity(16, param)
		x := tensor.New(3, 16)
		x.FillRandom(rng, 1)
		y := b.Apply(x)
		if !tensor.AlmostEqual(x, y, 1e-6) {
			t.Fatalf("%v identity butterfly changed input: %v", param, tensor.MaxAbsDiff(x, y))
		}
	}
}

func TestHadamardButterflyMatchesFWHT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 4, 8, 32, 128} {
		b := NewHadamard(n)
		x := tensor.New(2, n)
		x.FillRandom(rng, 1)
		y := b.Apply(x)
		for r := 0; r < x.Rows; r++ {
			want := append([]float32(nil), x.Row(r)...)
			hadamard.Transform(want)
			got := y.Row(r)
			for i := range want {
				if math.Abs(float64(got[i]-want[i])) > 1e-3 {
					t.Fatalf("n=%d row %d: butterfly=%v fwht=%v", n, r, got[i], want[i])
				}
			}
		}
	}
}

// Pair returns the (top, bottom) indices coupled by pair p.
func (f *Factor) Pair(p int) (int, int) {
	half := 1 << (f.Stage - 1)
	block := half << 1
	blockIdx := p / half
	k := p % half
	top := blockIdx*block + k
	return top, top + half
}

func TestPairEnumeration(t *testing.T) {
	b := NewIdentity(8, Dense2x2)
	// stage 1: stride 1 pairs (0,1),(2,3),(4,5),(6,7)
	f := b.Factors[0]
	wantTop := []int{0, 2, 4, 6}
	for p, wt := range wantTop {
		top, bot := f.Pair(p)
		if top != wt || bot != wt+1 {
			t.Fatalf("stage1 pair %d = (%d,%d), want (%d,%d)", p, top, bot, wt, wt+1)
		}
	}
	// stage 3: stride 4 pairs (0,4),(1,5),(2,6),(3,7)
	f = b.Factors[2]
	for p := 0; p < 4; p++ {
		top, bot := f.Pair(p)
		if top != p || bot != p+4 {
			t.Fatalf("stage3 pair %d = (%d,%d), want (%d,%d)", p, top, bot, p, p+4)
		}
	}
}

func TestDenseMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, param := range []Parameterization{Dense2x2, Rotation} {
		b := New(32, param, rng)
		T := b.Dense()
		x := tensor.New(5, 32)
		x.FillRandom(rng, 1)
		// Apply computes y_row = T·x_row, i.e. Y = X·Tᵀ
		want := tensor.MatMul(x, T.Transpose())
		got := b.Apply(x)
		if !tensor.AlmostEqual(want, got, 1e-3) {
			t.Fatalf("%v: Dense() disagrees with Apply: %v", param, tensor.MaxAbsDiff(want, got))
		}
	}
}

// factorMatrix returns factor f as an explicit N×N matrix, and how many
// distinct entries its pairs store.
func factorMatrix(f *Factor) (*tensor.Matrix, int) {
	m := tensor.New(f.N, f.N)
	stored := map[[2]int]bool{}
	for p := 0; p < f.NumPairs(); p++ {
		top, bot := f.Pair(p)
		for _, e := range []struct {
			i, j int
			v    float32
		}{{top, top, f.A[p]}, {top, bot, f.B[p]}, {bot, top, f.C[p]}, {bot, bot, f.D[p]}} {
			m.Set(e.i, e.j, m.At(e.i, e.j)+e.v)
			stored[[2]int{e.i, e.j}] = true
		}
	}
	return m, len(stored)
}

// TestSparseFactorsReproduceDense checks Equation 1's structure: the
// explicit factors, applied after the input permutation, multiply to the
// butterfly's dense matrix, and each stores two entries per row.
func TestSparseFactorsReproduceDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := New(16, Dense2x2, rng)
	// Build dense product: T = B_log···B_1·P
	n := b.N
	P := tensor.New(n, n)
	for i, p := range b.Perm {
		P.Set(i, p, 1)
	}
	prod := P
	for s, f := range b.Factors {
		m, stored := factorMatrix(f)
		if stored != 2*n {
			t.Fatalf("stage %d stores %d entries, want %d", s+1, stored, 2*n)
		}
		prod = tensor.MatMul(m, prod)
	}
	if !tensor.AlmostEqual(prod, b.Dense(), 1e-4) {
		t.Fatalf("sparse factor product != Dense: %v", tensor.MaxAbsDiff(prod, b.Dense()))
	}
}

func TestRotationButterflyIsOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := New(64, Rotation, rng)
	T := b.Dense()
	shouldBeI := tensor.MatMul(T, T.Transpose())
	if !tensor.AlmostEqual(shouldBeI, tensor.Identity(64), 1e-3) {
		t.Fatalf("rotation butterfly not orthogonal: %v",
			tensor.MaxAbsDiff(shouldBeI, tensor.Identity(64)))
	}
}

func TestForwardBackwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := New(16, Dense2x2, rng)
	x := tensor.New(4, 16)
	x.FillRandom(rng, 1)
	y := b.Forward(x)
	if y.Rows != 4 || y.Cols != 16 {
		t.Fatalf("forward shape %dx%d", y.Rows, y.Cols)
	}
	dx := b.Backward(y, true)
	if dx.Rows != 4 || dx.Cols != 16 {
		t.Fatalf("backward shape %dx%d", dx.Rows, dx.Cols)
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward before Forward did not panic")
		}
	}()
	b := NewIdentity(8, Dense2x2)
	b.Backward(tensor.New(1, 8), true)
}

// Numerical gradient check for the input gradient.
func TestInputGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, param := range []Parameterization{Dense2x2, Rotation} {
		b := New(8, param, rng)
		x := tensor.New(2, 8)
		x.FillRandom(rng, 1)
		r := tensor.New(2, 8)
		r.FillRandom(rng, 1)
		loss := func(xm *tensor.Matrix) float64 {
			y := b.Apply(xm)
			var s float64
			for i := range y.Data {
				s += float64(y.Data[i]) * float64(r.Data[i])
			}
			return s
		}
		b.ZeroGrad()
		b.Forward(x)
		dx := b.Backward(r, true)
		const h = 1e-3
		for i := 0; i < len(x.Data); i += 3 {
			orig := x.Data[i]
			x.Data[i] = orig + h
			up := loss(x)
			x.Data[i] = orig - h
			dn := loss(x)
			x.Data[i] = orig
			num := (up - dn) / (2 * h)
			if math.Abs(num-float64(dx.Data[i])) > 1e-2*(1+math.Abs(num)) {
				t.Fatalf("%v: input grad[%d] analytic %v numeric %v", param, i, dx.Data[i], num)
			}
		}
	}
}

// Numerical gradient check for the weight gradients (both
// parameterizations).
func TestWeightGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, param := range []Parameterization{Dense2x2, Rotation} {
		b := New(8, param, rng)
		x := tensor.New(3, 8)
		x.FillRandom(rng, 1)
		r := tensor.New(3, 8)
		r.FillRandom(rng, 1)
		loss := func() float64 {
			y := b.Apply(x)
			var s float64
			for i := range y.Data {
				s += float64(y.Data[i]) * float64(r.Data[i])
			}
			return s
		}
		b.ZeroGrad()
		b.Forward(x)
		b.Backward(r, true)
		params, grads := b.Params()
		const h = 1e-3
		for pi, pslice := range params {
			for j := 0; j < len(pslice); j += 2 {
				orig := pslice[j]
				pslice[j] = orig + h
				b.Refresh()
				up := loss()
				pslice[j] = orig - h
				b.Refresh()
				dn := loss()
				pslice[j] = orig
				b.Refresh()
				num := (up - dn) / (2 * h)
				got := float64(grads[pi][j])
				if math.Abs(num-got) > 2e-2*(1+math.Abs(num)) {
					t.Fatalf("%v: weight grad[%d][%d] analytic %v numeric %v", param, pi, j, got, num)
				}
			}
		}
	}
}

func TestZeroGradClears(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	b := New(8, Dense2x2, rng)
	x := tensor.New(2, 8)
	x.FillRandom(rng, 1)
	b.Forward(x)
	b.Backward(x, true)
	b.ZeroGrad()
	_, grads := b.Params()
	for _, g := range grads {
		for _, v := range g {
			if v != 0 {
				t.Fatal("ZeroGrad left nonzero gradient")
			}
		}
	}
}

func TestFlopsFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := New(16, Dense2x2, rng)
	// 6 flops · N/2 pairs · log2 N stages · batch
	want := 6.0 * 8 * 4 * 10
	if got := b.Flops(10); got != want {
		t.Fatalf("Flops = %v, want %v", got, want)
	}
}

// Property: Apply is linear in its input.
func TestApplyLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	b := New(16, Dense2x2, rng)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := tensor.New(2, 16)
		y := tensor.New(2, 16)
		x.FillRandom(r, 1)
		y.FillRandom(r, 1)
		sum := tensor.Add(x, y)
		left := b.Apply(sum)
		right := tensor.Add(b.Apply(x), b.Apply(y))
		return tensor.AlmostEqual(left, right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: rotation butterflies preserve the L2 norm of every row
// (orthogonality seen through random vectors).
func TestRotationNormPreservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := New(32, Rotation, rng)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := tensor.New(1, 32)
		x.FillRandom(r, 1)
		y := b.Apply(x)
		nx := x.FrobeniusNorm()
		ny := y.FrobeniusNorm()
		return math.Abs(nx-ny) < 1e-3*(1+nx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkButterflyForward1024(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	bf := New(1024, Dense2x2, rng)
	x := tensor.New(50, 1024)
	x.FillRandom(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.Apply(x)
	}
}

func BenchmarkButterflyApply(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bf := New(1024, Rotation, rng)
	x := tensor.New(32, 1024)
	x.FillRandom(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.Apply(x)
	}
}

func BenchmarkButterflyApplyInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bf := New(1024, Rotation, rng)
	x := tensor.New(32, 1024)
	x.FillRandom(rng, 1)
	dst := tensor.New(32, 1024)
	ws := tensor.NewWorkspace(tensor.Scratch{})
	bf.ApplyInto(dst, x, ws, nil, tensor.ActNone)
	ws.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		bf.ApplyInto(dst, x, ws, nil, tensor.ActNone)
	}
}
