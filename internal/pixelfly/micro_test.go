package pixelfly

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestApplyIntoMicroMatchesReference checks the inference kernel — the
// batch-major BSR product plus the low-rank staging and fused epilogue —
// against Apply followed by a separate bias and activation sweep,
// bit-for-bit, across block sizes 4, 8 and 16, with and without the
// low-rank term, with and without bias, under both activations.
func TestApplyIntoMicroMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, cfg := range []Config{
		{N: 64, BlockSize: 4, ButterflySize: 8, LowRank: 0},
		{N: 64, BlockSize: 8, ButterflySize: 8, LowRank: 4},
		{N: 64, BlockSize: 16, ButterflySize: 4, LowRank: 0},
		{N: 128, BlockSize: 4, ButterflySize: 16, LowRank: 8},
	} {
		p, err := New(cfg, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
		ws := tensor.NewWorkspace(tensor.Scratch{})
		for _, rows := range []int{1, 5} {
			x := tensor.New(rows, cfg.N)
			for i := range x.Data {
				x.Data[i] = rng.Float32()*2 - 1
			}
			bias := make([]float32, cfg.N)
			for i := range bias {
				bias[i] = rng.Float32()*2 - 1
			}
			got := tensor.New(rows, cfg.N)
			for _, bv := range [][]float32{nil, bias} {
				for _, act := range []tensor.Activation{tensor.ActNone, tensor.ActReLU} {
					want := p.Apply(x)
					tensor.ApplyBiasActInto(want, want, bv, act)
					ws.Reset()
					p.ApplyInto(got, x, ws, bv, act)
					assertSameMat(t, fmt.Sprintf("%+v rows=%d bias=%t/%v", cfg, rows, bv != nil, act), want, got)
				}
			}
		}
	}
}

// TestMicroVariantByBlockSize pins pixelfly's one variant label: every
// block size runs the same kernel.
func TestMicroVariantByBlockSize(t *testing.T) {
	for _, bs := range []int{4, 8, 16} {
		p, err := New(Config{N: 64, BlockSize: bs, ButterflySize: 4}, rand.New(rand.NewSource(43)))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.MicroVariant(); got != "blocktiled" {
			t.Errorf("bs=%d: MicroVariant() = %q, want blocktiled", bs, got)
		}
	}
}

func assertSameMat(t *testing.T, op string, want, got *tensor.Matrix) {
	t.Helper()
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: data[%d] = %v, want %v", op, i, got.Data[i], want.Data[i])
		}
	}
}

// TestScratchDeclaresApplyInto pins the declared workspace demand: a
// workspace that starts empty grows, over one ApplyInto and the Reset
// after it, to exactly what Scratch declares, with and without the
// low-rank term.
func TestScratchDeclaresApplyInto(t *testing.T) {
	for _, cfg := range []Config{
		{N: 64, BlockSize: 8, ButterflySize: 8, LowRank: 0},
		{N: 64, BlockSize: 8, ButterflySize: 8, LowRank: 4},
	} {
		p, err := New(cfg, rand.New(rand.NewSource(43)))
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
		for _, rows := range []int{1, 5} {
			ws := tensor.NewWorkspace(tensor.Scratch{})
			ws.Reset()
			p.ApplyInto(tensor.New(rows, cfg.N), tensor.New(rows, cfg.N), ws, nil, tensor.ActNone)
			ws.Reset()
			if got, want := ws.Capacity(), p.Scratch(rows); got != want {
				t.Errorf("%+v at %d rows: ApplyInto took %+v, Scratch declares %+v", cfg, rows, got, want)
			}
		}
	}
}

// TestApplyColsIntoAssemblesApplyInto pins the tensor-parallel window
// form: block-aligned windows, each written through a workspace of its
// own, assemble ApplyInto bit for bit, leave every column outside them
// alone, and each take exactly the ColsScratch they declare, with and
// without the low-rank term.
func TestApplyColsIntoAssemblesApplyInto(t *testing.T) {
	const rows = 3
	rng := rand.New(rand.NewSource(44))
	for _, cfg := range []Config{
		{N: 64, BlockSize: 8, ButterflySize: 8, LowRank: 0},
		{N: 64, BlockSize: 8, ButterflySize: 8, LowRank: 4},
		{N: 128, BlockSize: 16, ButterflySize: 4, LowRank: 8},
	} {
		p, err := New(cfg, rand.New(rand.NewSource(45)))
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
		x := tensor.New(rows, cfg.N)
		x.FillRandom(rng, 1)
		bias := make([]float32, cfg.N)
		for i := range bias {
			bias[i] = rng.Float32()*2 - 1
		}
		want := tensor.New(rows, cfg.N)
		p.ApplyInto(want, x, tensor.NewWorkspace(p.Scratch(rows)), bias, tensor.ActReLU)
		bs := cfg.BlockSize
		for _, pts := range [][]int{{0, cfg.N}, {0, bs, cfg.N}, {0, cfg.N / 2, cfg.N}, {0, 3 * bs, 3 * bs, cfg.N}} {
			got := tensor.New(rows, cfg.N)
			for i := range got.Data {
				got.Data[i] = 99
			}
			for k := 0; k+1 < len(pts); k++ {
				lo, hi := pts[k], pts[k+1]
				ws := tensor.NewWorkspace(tensor.Scratch{})
				ws.Reset()
				p.ApplyColsInto(got, x, ws, lo, hi, bias[lo:hi], tensor.ActReLU)
				ws.Reset()
				if got, want := ws.Capacity(), p.ColsScratch(rows, hi-lo); got != want {
					t.Errorf("%+v window [%d,%d): took %+v, ColsScratch declares %+v", cfg, lo, hi, got, want)
				}
				for r := 0; r < rows; r++ {
					for j, v := range got.Row(r)[hi:] {
						if v != 99 {
							t.Fatalf("%+v window [%d,%d) wrote column %d", cfg, lo, hi, hi+j)
						}
					}
				}
			}
			assertSameMat(t, fmt.Sprintf("%+v windows %v", cfg, pts), want, got)
		}
	}
}
