package pixelfly

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
	"repro/internal/tensor"
)

func mustNew(t *testing.T, cfg Config, seed int64) *Pixelfly {
	t.Helper()
	p, err := New(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{N: 12, BlockSize: 4, ButterflySize: 4},
		{N: 16, BlockSize: 3, ButterflySize: 4},
		{N: 16, BlockSize: 4, ButterflySize: 5},
		{N: 16, BlockSize: 4, ButterflySize: 4, LowRank: -1},
		{N: 16, BlockSize: 4, ButterflySize: 4, LowRank: 17},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	good := Config{N: 16, BlockSize: 4, ButterflySize: 4, LowRank: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("config %+v should be valid: %v", good, err)
	}
}

func TestSupportIncludesDiagonal(t *testing.T) {
	cfg := Config{N: 64, BlockSize: 8, ButterflySize: 8}
	support := cfg.SupportBlocks()
	onDiag := map[int]bool{}
	for _, b := range support {
		if b[0] == b[1] {
			onDiag[b[0]] = true
		}
	}
	for i := 0; i < 8; i++ {
		if !onDiag[i] {
			t.Fatalf("diagonal block %d missing from support", i)
		}
	}
}

func TestSupportMatchesButterflyGraphExactGrid(t *testing.T) {
	// When butterfly size == block grid size, support must be exactly
	// nb·(1 + log2 nb) blocks: diagonal + one off-diagonal per stage.
	cfg := Config{N: 64, BlockSize: 8, ButterflySize: 8}
	support := cfg.SupportBlocks()
	want := 8 * (1 + 3)
	if len(support) != want {
		t.Fatalf("support size = %d, want %d", len(support), want)
	}
	// Every off-diagonal block must be at XOR-power-of-two distance.
	for _, b := range support {
		if b[0] == b[1] {
			continue
		}
		d := b[0] ^ b[1]
		if d&(d-1) != 0 {
			t.Fatalf("block %v not a butterfly connection", b)
		}
	}
}

func TestSupportStretch(t *testing.T) {
	// Block grid 16 wide, butterfly over 4 nodes -> each node covers 4
	// block rows; support = 4·(1+2) node edges × 16 blocks each.
	cfg := Config{N: 64, BlockSize: 4, ButterflySize: 4}
	support := cfg.SupportBlocks()
	want := 4 * (1 + 2) * 16
	if len(support) != want {
		t.Fatalf("stretched support = %d, want %d", len(support), want)
	}
}

func TestSupportSqueeze(t *testing.T) {
	// Butterfly over 16 nodes squeezed onto a 4-wide block grid: support
	// collapses; must stay within grid bounds and remain deduplicated.
	cfg := Config{N: 16, BlockSize: 4, ButterflySize: 16}
	support := cfg.SupportBlocks()
	seen := map[[2]int]bool{}
	for _, b := range support {
		if b[0] < 0 || b[0] >= 4 || b[1] < 0 || b[1] >= 4 {
			t.Fatalf("block %v out of 4x4 grid", b)
		}
		if seen[b] {
			t.Fatalf("duplicate block %v", b)
		}
		seen[b] = true
	}
}

func TestParamCount(t *testing.T) {
	cfg := Config{N: 64, BlockSize: 8, ButterflySize: 8, LowRank: 4}
	p := mustNew(t, cfg, 1)
	wantBlocks := 8 * (1 + 3) * 64 // 32 blocks × 8² values
	want := wantBlocks + 2*64*4
	if got := p.ParamCount(); got != want {
		t.Fatalf("ParamCount = %d, want %d", got, want)
	}
}

func TestForwardMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := Config{N: 32, BlockSize: 4, ButterflySize: 8, LowRank: 3}
	p := mustNew(t, cfg, 3)
	x := tensor.New(5, 32)
	x.FillRandom(rng, 1)
	// y_row = (W + U·Vᵀ)·x_row  =>  Y = X·(W+UVᵀ)ᵀ
	D := p.Dense()
	want := tensor.MatMul(x, D.Transpose())
	got := p.Apply(x)
	if !tensor.AlmostEqual(want, got, 1e-3) {
		t.Fatalf("pixelfly forward != dense: %v", tensor.MaxAbsDiff(want, got))
	}
}

func TestForwardNoLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := Config{N: 16, BlockSize: 4, ButterflySize: 4, LowRank: 0}
	p := mustNew(t, cfg, 5)
	x := tensor.New(2, 16)
	x.FillRandom(rng, 1)
	want := tensor.MatMul(x, p.Dense().Transpose())
	got := p.Apply(x)
	if !tensor.AlmostEqual(want, got, 1e-4) {
		t.Fatalf("no-lowrank forward mismatch: %v", tensor.MaxAbsDiff(want, got))
	}
}

func TestInputGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := Config{N: 16, BlockSize: 4, ButterflySize: 4, LowRank: 2}
	p := mustNew(t, cfg, 7)
	x := tensor.New(2, 16)
	x.FillRandom(rng, 1)
	r := tensor.New(2, 16)
	r.FillRandom(rng, 1)
	loss := func() float64 {
		y := p.Apply(x)
		var s float64
		for i := range y.Data {
			s += float64(y.Data[i]) * float64(r.Data[i])
		}
		return s
	}
	p.ZeroGrad()
	p.Forward(x)
	dx := p.Backward(r)
	const h = 1e-3
	for i := 0; i < len(x.Data); i += 3 {
		orig := x.Data[i]
		x.Data[i] = orig + h
		up := loss()
		x.Data[i] = orig - h
		dn := loss()
		x.Data[i] = orig
		num := (up - dn) / (2 * h)
		if math.Abs(num-float64(dx.Data[i])) > 2e-2*(1+math.Abs(num)) {
			t.Fatalf("input grad[%d]: analytic %v numeric %v", i, dx.Data[i], num)
		}
	}
}

func TestWeightGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := Config{N: 16, BlockSize: 4, ButterflySize: 4, LowRank: 2}
	p := mustNew(t, cfg, 9)
	x := tensor.New(3, 16)
	x.FillRandom(rng, 1)
	r := tensor.New(3, 16)
	r.FillRandom(rng, 1)
	loss := func() float64 {
		y := p.Apply(x)
		var s float64
		for i := range y.Data {
			s += float64(y.Data[i]) * float64(r.Data[i])
		}
		return s
	}
	p.ZeroGrad()
	p.Forward(x)
	p.Backward(r)
	params, grads := p.Params()
	const h = 1e-3
	for pi, pslice := range params {
		step := len(pslice)/7 + 1
		for j := 0; j < len(pslice); j += step {
			orig := pslice[j]
			pslice[j] = orig + h
			up := loss()
			pslice[j] = orig - h
			dn := loss()
			pslice[j] = orig
			num := (up - dn) / (2 * h)
			got := float64(grads[pi][j])
			if math.Abs(num-got) > 2e-2*(1+math.Abs(num)) {
				t.Fatalf("param group %d grad[%d]: analytic %v numeric %v", pi, j, got, num)
			}
		}
	}
}

func TestZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := Config{N: 16, BlockSize: 4, ButterflySize: 4, LowRank: 1}
	p := mustNew(t, cfg, 11)
	x := tensor.New(2, 16)
	x.FillRandom(rng, 1)
	p.Forward(x)
	p.Backward(x)
	p.ZeroGrad()
	_, grads := p.Params()
	for _, g := range grads {
		for _, v := range g {
			if v != 0 {
				t.Fatal("ZeroGrad left residue")
			}
		}
	}
}

// TestGradientsAllocatedOnFirstUse pins when a pixelfly layer holds
// gradient buffers: none once built or after ZeroGrad, zeroed ones as long
// as their parameters from Params, and the same gradients, bit for bit,
// after Forward and Backward whether Params (as nn.NewSGD calls it) or
// Backward allocated them.
func TestGradientsAllocatedOnFirstUse(t *testing.T) {
	absent := func(p *Pixelfly) bool { return p.GradW == nil && p.GradU == nil && p.GradV == nil }
	for _, lowRank := range []int{0, 2} {
		cfg := Config{N: 16, BlockSize: 4, ButterflySize: 4, LowRank: lowRank}
		p := mustNew(t, cfg, 12)
		if !absent(p) {
			t.Fatalf("low rank %d: a new layer holds gradient buffers", lowRank)
		}
		if a := testing.AllocsPerRun(10, p.ZeroGrad); a != 0 || !absent(p) {
			t.Fatalf("low rank %d: ZeroGrad made %v allocations (buffers absent after: %v)", lowRank, a, absent(p))
		}
		params, grads := p.Params()
		for i := range params {
			if len(grads[i]) != len(params[i]) {
				t.Fatalf("low rank %d: gradient group %d has %d values for %d parameters", lowRank, i, len(grads[i]), len(params[i]))
			}
			for _, g := range grads[i] {
				if g != 0 {
					t.Fatalf("low rank %d: gradient group %d starts at %v", lowRank, i, g)
				}
			}
		}
		rng := rand.New(rand.NewSource(13))
		x, dY := tensor.New(3, 16), tensor.New(3, 16)
		x.FillRandom(rng, 1)
		dY.FillRandom(rng, 1)
		viaBackward := mustNew(t, cfg, 12)
		for _, m := range []*Pixelfly{p, viaBackward} {
			m.Forward(x)
			m.Backward(dY)
		}
		// grads are the slices an optimizer bound before the step.
		_, got := viaBackward.Params()
		for i := range grads {
			for j := range grads[i] {
				if math.Float32bits(got[i][j]) != math.Float32bits(grads[i][j]) {
					t.Fatalf("low rank %d: gradient group %d [%d] = %v allocated by Backward, %v by Params", lowRank, i, j, got[i][j], grads[i][j])
				}
			}
		}
	}
}

func TestParamCountGrowsWithKnobs(t *testing.T) {
	// Section 5's qualitative claim: butterfly size and block size move the
	// parameter count; low-rank adds 2·N·r.
	base := Config{N: 256, BlockSize: 8, ButterflySize: 16, LowRank: 4}
	pBase := mustNew(t, base, 12)
	bigBf := base
	bigBf.ButterflySize = 32
	pBf := mustNew(t, bigBf, 12)
	// A larger butterfly network is *sparser*: the support fraction is
	// (1+log2 bfs)/bfs of the grid, so parameters drop as bfs grows. This
	// strong dependence is what drives Table 5's NParams std.
	if pBf.ParamCount() >= pBase.ParamCount() {
		t.Fatalf("larger butterfly size should reduce parameters: %d vs %d",
			pBf.ParamCount(), pBase.ParamCount())
	}
	bigLr := base
	bigLr.LowRank = 8
	pLr := mustNew(t, bigLr, 12)
	if pLr.ParamCount()-pBase.ParamCount() != 2*256*4 {
		t.Fatalf("low-rank delta = %d, want %d", pLr.ParamCount()-pBase.ParamCount(), 2*256*4)
	}
}

// Property: forward is linear in the input.
func TestForwardLinearityProperty(t *testing.T) {
	cfg := Config{N: 32, BlockSize: 8, ButterflySize: 4, LowRank: 2}
	p, err := New(cfg, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := tensor.New(2, 32)
		y := tensor.New(2, 32)
		x.FillRandom(r, 1)
		y.FillRandom(r, 1)
		left := p.Apply(tensor.Add(x, y))
		right := tensor.Add(p.Apply(x), p.Apply(y))
		return tensor.AlmostEqual(left, right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPixelflyForward1024(b *testing.B) {
	cfg := Config{N: 1024, BlockSize: 32, ButterflySize: 32, LowRank: 8}
	p, err := New(cfg, rand.New(rand.NewSource(14)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	x := tensor.New(50, 1024)
	x.FillRandom(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(x)
	}
}

// TestForwardMatchesApplyBitForBit checks the training forward pass —
// split products, cached Uᵀ — against the serial Apply by ==, at
// GOMAXPROCS 1 and 4, on the paper configuration at batch 50.
func TestForwardMatchesApplyBitForBit(t *testing.T) {
	p := mustNew(t, Config{N: 1024, BlockSize: 64, ButterflySize: 16, LowRank: 32}, 18)
	x := tensor.New(50, 1024)
	x.FillRandom(rand.New(rand.NewSource(19)), 1)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		assertSameMat(t, fmt.Sprintf("procs=%d Forward", procs), p.Apply(x), p.Forward(x))
		runtime.GOMAXPROCS(prev)
	}
}

// refInputGrad is the plain bᵀ·dY loop of sparse's refTransposeMulDense
// oracle, on batch-major dY: every element of dX sums its terms over the
// stored blocks in RowPtr order, then by ascending row within the block,
// skipping zero entries.
func refInputGrad(w *sparse.BSR, dY *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(dY.Rows, w.Cols)
	bs := w.BlockSize
	for bi := 0; bi < w.BlockRows; bi++ {
		for p := w.RowPtr[bi]; p < w.RowPtr[bi+1]; p++ {
			col0 := int(w.ColIdx[p]) * bs
			blk := w.Block(int(p))
			for r := 0; r < bs; r++ {
				for c := 0; c < bs; c++ {
					v := blk[c*bs+r]
					if v == 0 {
						continue
					}
					for s := 0; s < dY.Rows; s++ {
						out.Data[s*w.Cols+col0+c] += v * dY.At(s, bi*bs+r)
					}
				}
			}
		}
	}
	return out
}

// TestTrainingCopyLifecycle pins the row-major copy of W's blocks that
// the input gradient reads: New, Refresh and ApplyInto (at one row and
// at 64) leave the layer without one, so a served layer holds its blocks
// once, and every Backward reads the current W: after an SGD step moves
// W, the next Backward's dX must equal the plain loop on the moved W bit
// for bit, which a copy left from the first Backward fails.
func TestTrainingCopyLifecycle(t *testing.T) {
	cfg := Config{N: 128, BlockSize: 16, ButterflySize: 8}
	p := mustNew(t, cfg, 21)
	p.Refresh()
	rng := rand.New(rand.NewSource(22))
	ws := tensor.NewWorkspace(tensor.Scratch{})
	for _, rows := range []int{1, 64} {
		x := tensor.New(rows, cfg.N)
		x.FillRandom(rng, 1)
		ws.Reset()
		p.ApplyInto(tensor.New(rows, cfg.N), x, ws, nil, tensor.ActReLU)
	}
	if p.wRows != nil {
		t.Fatal("New, Refresh and ApplyInto left a row-major copy of the blocks")
	}
	x, dY := tensor.New(50, cfg.N), tensor.New(50, cfg.N)
	x.FillRandom(rng, 1)
	dY.FillRandom(rng, 1)
	for step := 0; step < 2; step++ {
		p.Forward(x)
		assertSameMat(t, fmt.Sprintf("step %d dX", step), refInputGrad(p.W, dY), p.Backward(dY))
		params, grads := p.Params()
		for i := range params {
			for j := range params[i] {
				params[i][j] -= 0.5 * grads[i][j]
			}
		}
		p.ZeroGrad()
		p.Refresh()
	}
}

// BenchmarkTrainStep times Forward+Backward of the paper pixelfly layer
// (N 1024, butterfly size 16, low rank 32) at batch 50, the training
// shape, at the paper's block size 64 and at 8 and 4, which store the
// same number of values in 64 and 4,096 times as many blocks.
func BenchmarkTrainStep(b *testing.B) {
	for _, bs := range []int{64, 8, 4} {
		b.Run(fmt.Sprintf("bs%d", bs), func(b *testing.B) {
			cfg := Config{N: 1024, BlockSize: bs, ButterflySize: 16, LowRank: 32}
			p, err := New(cfg, rand.New(rand.NewSource(16)))
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			x := tensor.New(50, 1024)
			x.FillRandom(rng, 1)
			dY := tensor.New(50, 1024)
			dY.FillRandom(rng, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Forward(x)
				p.Backward(dY)
			}
		})
	}
}
