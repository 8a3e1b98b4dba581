package butterfly

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestMicroSweepsMatchReference checks every specialized stage kernel
// against the reference pairs sweep, bit-for-bit, across sizes that put
// each stage through the half ∈ {1,2,4} unrolls and the wide path.
func TestMicroSweepsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 8, 16, 32, 64, 256} {
		b := New(n, Dense2x2, rng)
		for rows := 1; rows <= 3; rows++ {
			x := tensor.New(rows, n)
			for i := range x.Data {
				x.Data[i] = rng.Float32()*2 - 1
			}
			for _, f := range b.Factors {
				want := tensor.New(rows, n)
				got := tensor.New(rows, n)
				applyFactorRows(f, x, want)
				applyFactorRowsMicro(f, x, got, 0, rows)
				for i := range want.Data {
					if want.Data[i] != got.Data[i] {
						t.Fatalf("n=%d stage=%d rows=%d: data[%d] = %v, want %v",
							n, f.Stage, rows, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestApplyIntoMicroMatchesReference checks the full inference kernel —
// perm, ping-pong through the micro sweeps, fused epilogue — against Apply
// followed by a separate bias and activation sweep, with and without bias,
// under both activations.
func TestApplyIntoMicroMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128} {
		b := New(n, Dense2x2, rng)
		ws := tensor.NewWorkspace(tensor.Scratch{})
		for rows := 1; rows <= 4; rows += 3 {
			x := tensor.New(rows, n)
			for i := range x.Data {
				x.Data[i] = rng.Float32()*2 - 1
			}
			bias := make([]float32, n)
			for i := range bias {
				bias[i] = rng.Float32()*2 - 1
			}
			got := tensor.New(rows, n)
			for _, bv := range [][]float32{nil, bias} {
				for _, act := range []tensor.Activation{tensor.ActNone, tensor.ActReLU} {
					want := b.Apply(x)
					tensor.ApplyBiasActInto(want, want, bv, act)
					ws.Reset()
					b.ApplyInto(got, x, ws, bv, act)
					assertSame(t, n, rows, fmt.Sprintf("ApplyInto/bias=%t/%v", bv != nil, act), want, got)
				}
			}
		}
	}
}

func assertSame(t *testing.T, n, rows int, op string, want, got *tensor.Matrix) {
	t.Helper()
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s n=%d rows=%d: data[%d] = %v, want %v", op, n, rows, i, got.Data[i], want.Data[i])
		}
	}
}

// BenchmarkApplyFactorRows compares the reference pairs sweep (Apply's
// path and the oracle) against the unrolled micro sweep across the full
// stage ladder at serving-realistic shapes.
func BenchmarkApplyFactorRows(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range [][2]int{{1, 256}, {16, 256}, {1, 1024}, {16, 1024}} {
		rows, n := sh[0], sh[1]
		bf := New(n, Dense2x2, rng)
		x := tensor.New(rows, n)
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
		out := tensor.New(rows, n)
		// One "op" sweeps every stage once: the whole transform's work.
		flops := int64(rows) * int64(len(bf.Factors)) * int64(n) * 3
		b.Run(fmt.Sprintf("ref/b%dxn%d", rows, n), func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				for _, f := range bf.Factors {
					applyFactorRows(f, x, out)
				}
			}
		})
		b.Run(fmt.Sprintf("unrolled/b%dxn%d", rows, n), func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				for _, f := range bf.Factors {
					applyFactorRowsMicro(f, x, out, 0, rows)
				}
			}
		})
	}
}

// TestScratchDeclaresApplyInto pins the declared workspace demand: a
// workspace that starts empty grows, over one ApplyInto and the Reset
// after it, to exactly what Scratch declares, the factorless butterfly
// included.
func TestScratchDeclaresApplyInto(t *testing.T) {
	for _, n := range []int{1, 2, 64} {
		b := New(n, Dense2x2, rand.New(rand.NewSource(13)))
		for _, rows := range []int{1, 5} {
			ws := tensor.NewWorkspace(tensor.Scratch{})
			ws.Reset()
			b.ApplyInto(tensor.New(rows, n), tensor.New(rows, n), ws, nil, tensor.ActNone)
			ws.Reset()
			if got, want := ws.Capacity(), b.Scratch(rows); got != want {
				t.Errorf("n=%d at %d rows: ApplyInto took %+v, Scratch declares %+v", n, rows, got, want)
			}
		}
	}
}

// TestColsPassesMatchApplyInto assembles the tensor-parallel window form
// — PermuteColsInto, then every factor's ApplyColsInto, each pass written
// window by window with the bias and activation on the last — and pins
// it to ApplyInto bit for bit at 1, 2, 4 and 8 equal windows, so the top
// stages read the partner columns other windows wrote, with the
// bit-reversal permutation and without one.
func TestColsPassesMatchApplyInto(t *testing.T) {
	const n, rows = 64, 3
	rng := rand.New(rand.NewSource(61))
	for _, b := range []*Butterfly{New(n, Dense2x2, rng), New(n, Rotation, rng), NewHadamard(n)} {
		x := tensor.New(rows, n)
		x.FillRandom(rng, 1)
		bias := make([]float32, n)
		for i := range bias {
			bias[i] = rng.Float32()*2 - 1
		}
		ws := tensor.NewWorkspace(b.Scratch(rows))
		for _, act := range []tensor.Activation{tensor.ActNone, tensor.ActReLU} {
			want := tensor.New(rows, n)
			ws.Reset()
			b.ApplyInto(want, x, ws, bias, act)
			for _, shards := range []int{1, 2, 4, 8} {
				w := n / shards
				cur, next := tensor.New(rows, n), tensor.New(rows, n)
				for k := 0; k < shards; k++ {
					b.PermuteColsInto(cur, x, k*w, (k+1)*w)
				}
				for s, f := range b.Factors {
					for k := 0; k < shards; k++ {
						lo, hi := k*w, (k+1)*w
						if s == len(b.Factors)-1 {
							f.ApplyColsInto(next, cur, lo, hi, bias[lo:hi], act)
						} else {
							f.ApplyColsInto(next, cur, lo, hi, nil, tensor.ActNone)
						}
					}
					cur, next = next, cur
				}
				for i := range want.Data {
					if want.Data[i] != cur.Data[i] {
						t.Fatalf("perm=%t %v shards=%d: data[%d] = %v, want %v", b.Perm != nil, act, shards, i, cur.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}
