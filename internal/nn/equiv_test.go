// Package nn_test holds the repo-wide equivalence fuzz harness: for
// randomized widths, batches, operator families and shard counts, every
// compiled execution path — unfused plan, fused plan, the fused plan's
// instances at other batch caps, and sharded plan under both partitioning
// strategies — must be bit-for-bit equal to the
// reference Sequential.Infer. This is the property the plan-fusion
// optimisation is pinned against (structured-equivalence in the spirit of
// the rank-one-block identification line of work: an optimisation is only
// admissible if it computes the exact same float32 chain), and it runs
// race-clean in CI.
package nn_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/pixelfly"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// assertBitEqual fails unless a and b hold exactly the same float32 bits.
func assertBitEqual(t *testing.T, tag string, want, got *tensor.Matrix) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", tag, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: element %d differs: %g vs %g (want bit-for-bit)", tag, i, want.Data[i], got.Data[i])
		}
	}
}

// methodWidths returns layer widths compatible with a method's structural
// constraints (pixelfly's 64-wide blocks need wider layers).
func methodWidths(m nn.Method) []int {
	if m == nn.Pixelfly {
		return []int{64, 128}
	}
	return []int{8, 16, 32, 64, 128}
}

// leadingRows returns a view of m's first rows rows. Every plan kernel is
// row-wise, so a plan's output for them is the leading rows of its output
// for m.
func leadingRows(m *tensor.Matrix, rows int) *tensor.Matrix {
	return &tensor.Matrix{Rows: rows, Cols: m.Cols, Data: m.Data[:rows*m.Cols]}
}

// equivTrial drives one randomized model through every execution path and
// pins them all to Infer. With mustFuse the fused plan must fuse at least
// one step, as every served family's nn.BuildSHL net does.
func equivTrial(t *testing.T, rng *rand.Rand, net *nn.Sequential, n, maxBatch int, mustFuse bool) {
	t.Helper()
	topo := shard.DefaultTopology(4)
	fused, err := net.CompilePlan(maxBatch)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	unfused, err := net.CompilePlanOpts(maxBatch, nn.PlanOptions{NoFuse: true})
	if err != nil {
		t.Fatalf("CompilePlanOpts(NoFuse): %v", err)
	}
	fs, us := fused.Stats(maxBatch), unfused.Stats(maxBatch)
	if us.FusedSteps != 0 {
		t.Fatalf("unfused plan reports %d fused steps", us.FusedSteps)
	}
	if mustFuse && fs.FusedSteps == 0 {
		t.Fatalf("fusion fired on none of %d steps", us.Steps)
	}
	if fs.FusedSteps > 0 {
		if fs.Steps >= us.Steps {
			t.Fatalf("fusion fired (%d fused) but steps %d !< %d", fs.FusedSteps, fs.Steps, us.Steps)
		}
		if fs.TrafficBytes >= us.TrafficBytes {
			t.Fatalf("fusion fired but modelled traffic %d !< %d", fs.TrafficBytes, us.TrafficBytes)
		}
	}
	if fs.TrafficBytesBeforeFusion != us.TrafficBytes {
		t.Fatalf("pre-fusion traffic %d != unfused plan traffic %d", fs.TrafficBytesBeforeFusion, us.TrafficBytes)
	}

	batches := []int{1, 1 + rng.Intn(maxBatch), maxBatch}
	inputs := make([]*tensor.Matrix, len(batches))
	refs := make([]*tensor.Matrix, len(batches))
	for i, batch := range batches {
		x := tensor.New(batch, n)
		x.FillRandom(rng, 1)
		inputs[i] = x
		refs[i] = net.Infer(x)
		for tag, pl := range map[string]*nn.Plan{"unfused": unfused, "fused": fused} {
			got, err := pl.Execute(x)
			if err != nil {
				t.Fatalf("%s Execute(batch=%d): %v", tag, batch, err)
			}
			assertBitEqual(t, tag, refs[i], got)
		}
	}

	// Instances of the fused plan share its steps and packs at other batch
	// caps; each runs the leading rows of every input up to its cap.
	for _, mb := range []int{1, max(1, maxBatch/2)} {
		inst, err := fused.Instance(mb)
		if err != nil {
			t.Fatalf("Instance(%d): %v", mb, err)
		}
		for i, x := range inputs {
			rows := min(x.Rows, mb)
			got, err := inst.Execute(leadingRows(x, rows))
			if err != nil {
				t.Fatalf("Instance(%d) Execute(batch=%d): %v", mb, rows, err)
			}
			assertBitEqual(t, "instance", leadingRows(refs[i], rows), got)
		}
	}

	for _, src := range []struct {
		tag string
		pl  *nn.Plan
	}{{"fused", fused}, {"unfused", unfused}} {
		for _, shards := range []int{1, 2, 4} {
			strategies := []shard.Strategy{shard.Pipeline}
			if shards > 1 && shard.Splittable(src.pl.Lowering, shards) == nil {
				strategies = append(strategies, shard.TensorParallel)
			}
			for _, strat := range strategies {
				sp, err := shard.CompileMicro(src.pl.Lowering, src.pl.MaxBatch(), topo, shards, strat, 1)
				if err != nil {
					t.Fatalf("CompileMicro(%s, %d, %v): %v", src.tag, shards, strat, err)
				}
				for i, x := range inputs {
					got, err := sp.Execute(x)
					if err != nil {
						t.Fatalf("sharded %s/%d/%v Execute: %v", src.tag, shards, strat, err)
					}
					assertBitEqual(t, src.tag+"/sharded", refs[i], got)
				}
				sp.Close()
			}
		}
	}

	// The multi-micro-batch wavefront schedule must also be bit-for-bit:
	// micro-batches are contiguous row slices of the same row-wise
	// kernels, so no float32 expression changes with the width.
	for _, shards := range []int{2, 4} {
		for _, micro := range []int{1, 2, 4} {
			sp, err := shard.CompileMicro(fused.Lowering, fused.MaxBatch(), topo, shards, shard.Pipeline, micro)
			if err != nil {
				t.Fatalf("CompileMicro(%d, %d): %v", shards, micro, err)
			}
			for i, x := range inputs {
				got, err := sp.Execute(x)
				if err != nil {
					t.Fatalf("wavefront %d/%d Execute: %v", shards, micro, err)
				}
				assertBitEqual(t, "wavefront", refs[i], got)
			}
			sp.Close()
		}
	}
}

// TestEquivalenceFuzzAllMethods is the harness over the six operator
// families with randomized (seeded) widths, class counts and batch caps.
func TestEquivalenceFuzzAllMethods(t *testing.T) {
	const trials = 3
	for _, method := range nn.AllMethods {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(2026 + int64(method)))
			for trial := 0; trial < trials; trial++ {
				widths := methodWidths(method)
				n := widths[rng.Intn(len(widths))]
				classes := 2 + rng.Intn(11)
				maxBatch := 1 + rng.Intn(12)
				net := nn.BuildSHL(method, n, classes, rand.New(rand.NewSource(rng.Int63())))
				equivTrial(t, rng, net, n, maxBatch, true)
			}
		})
	}
}

// TestEquivalenceFuzzCompressed covers the post-hoc compressed layer mix
// (FactorizedDense / structured swaps) the registry also serves.
func TestEquivalenceFuzzCompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	net := nn.BuildSHL(nn.Baseline, 64, 10, rand.New(rand.NewSource(5)))
	compressed, reports, err := net.Compress(nn.CompressOptions{Tolerance: 0.7, Seed: 9})
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	if len(reports) == 0 {
		t.Fatal("Compress produced no layer reports")
	}
	equivTrial(t, rng, compressed, 64, 8, false)
}

// TestEquivalenceFuzzPixelflyNoLowRank exercises the BSR fused final stage
// (pixelfly without a low-rank term routes the epilogue through
// BSR.MulInto) and its sharded counterpart, which runs it on each shard's
// block rows.
func TestEquivalenceFuzzPixelflyNoLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	cfg := pixelfly.Config{N: 128, BlockSize: 16, ButterflySize: 16, LowRank: 0}
	net, err := nn.BuildSHLPixelfly(cfg, 6, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatalf("BuildSHLPixelfly: %v", err)
	}
	equivTrial(t, rng, net, 128, 9, false)
}

// FuzzPlanExecute is the plan's independent second check: a randomized
// SHL of any family, or the compressed dense SHL (nn.Compress, as
// TestEquivalenceFuzzCompressed builds it, whose head is a
// FactorizedDense), compiled fused and unfused and sharded (pipeline,
// and tensor-parallel where the plan splits, at 2 and 4 shards), and the
// fused plan's instances at MaxBatch 1 and MaxBatch/2, must produce
// exactly Infer's output for arbitrary finite features. Elements
// must be equal, or NaN on both sides: finite inputs can overflow to ±Inf
// inside a layer and then meet an Inf of the other sign, which both paths
// turn into NaN. The fuzzer drives the family (the compressed net is
// family len(nn.AllMethods)), the width (from methodWidths), the class
// count, MaxBatch, the batch rows, the weight seed and the feature bits;
// NaN and ±Inf features are mapped to finite values, as JSON can carry
// only finite features.
func FuzzPlanExecute(f *testing.F) {
	// Edge values every seed starts with: signed zeros, the largest
	// finite magnitudes and subnormals.
	edges := []float32{0, float32(math.Copysign(0, -1)), math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32, -1e-40, 1, -0.5}
	seedFeats := func(seed int64) []byte {
		feats := make([]byte, 0, 4*(len(edges)+4))
		for _, v := range edges {
			feats = binary.LittleEndian.AppendUint32(feats, math.Float32bits(v))
		}
		rng := rand.New(rand.NewSource(seed))
		for j := 0; j < 4; j++ {
			feats = binary.LittleEndian.AppendUint32(feats, math.Float32bits(rng.Float32()*2-1))
		}
		return feats
	}
	for i := range nn.AllMethods {
		f.Add(uint8(i), uint8(i), uint8(3+i), uint8(4), uint8(2+i), int64(100+i), seedFeats(int64(i)))
	}
	// One-row pixelfly batches, the shape the server runs, so the BSR
	// kernel sees the edge features in a one-row batch: width 64 at
	// MaxBatch 1, and width 128 at MaxBatch 5, whose 2-shard
	// tensor-parallel split runs it over each shard's block rows.
	pix := uint8(slices.Index(nn.AllMethods, nn.Pixelfly))
	f.Add(pix, uint8(0), uint8(3), uint8(0), uint8(0), int64(200), seedFeats(200))
	f.Add(pix, uint8(1), uint8(9), uint8(4), uint8(5), int64(201), seedFeats(201))
	// The compressed net at width 64 and MaxBatch 5: its 10-class
	// FactorizedDense head splits into panel windows at 2 shards, and
	// leaves shards idle at 4.
	f.Add(uint8(len(nn.AllMethods)), uint8(3), uint8(8), uint8(4), uint8(4), int64(300), seedFeats(300))
	topo := shard.DefaultTopology(4)
	f.Fuzz(func(t *testing.T, family, width, classes, maxBatch, rows uint8, seed int64, feats []byte) {
		fam := int(family) % (len(nn.AllMethods) + 1)
		compressed := fam == len(nn.AllMethods)
		method := nn.Baseline
		if !compressed {
			method = nn.AllMethods[fam]
		}
		widths := methodWidths(method)
		n := widths[int(width)%len(widths)]
		nc := 2 + int(classes)%11
		mb := 1 + int(maxBatch)%8
		x := tensor.New(1+int(rows)%mb, n)
		if k := len(feats) / 4; k > 0 {
			for i := range x.Data {
				j := 4 * (i % k)
				x.Data[i] = finiteFeature(math.Float32frombits(binary.LittleEndian.Uint32(feats[j:])))
			}
		}
		net := nn.BuildSHL(method, n, nc, rand.New(rand.NewSource(seed)))
		if compressed {
			var err error
			if net, _, err = net.Compress(nn.CompressOptions{Tolerance: 0.7, Seed: 9}); err != nil {
				t.Fatalf("Compress: %v", err)
			}
		}
		want := net.Infer(x)

		fused, err := net.CompilePlan(mb)
		if err != nil {
			t.Fatalf("CompilePlan: %v", err)
		}
		unfused, err := net.CompilePlanOpts(mb, nn.PlanOptions{NoFuse: true})
		if err != nil {
			t.Fatalf("CompilePlanOpts(NoFuse): %v", err)
		}
		for tag, pl := range map[string]*nn.Plan{"fused": fused, "unfused": unfused} {
			got, err := pl.Execute(x)
			if err != nil {
				t.Fatalf("%s Execute: %v", tag, err)
			}
			assertEqualOrBothNaN(t, tag, want, got)
		}
		for _, imb := range []int{1, max(1, mb/2)} {
			inst, err := fused.Instance(imb)
			if err != nil {
				t.Fatalf("Instance(%d): %v", imb, err)
			}
			rows := min(x.Rows, imb)
			got, err := inst.Execute(leadingRows(x, rows))
			if err != nil {
				t.Fatalf("Instance(%d) Execute: %v", imb, err)
			}
			assertEqualOrBothNaN(t, "instance", leadingRows(want, rows), got)
		}
		for _, shards := range []int{2, 4} {
			strategies := []shard.Strategy{shard.Pipeline}
			if shard.Splittable(fused.Lowering, shards) == nil {
				strategies = append(strategies, shard.TensorParallel)
			}
			for _, strat := range strategies {
				sp, err := shard.CompileMicro(fused.Lowering, fused.MaxBatch(), topo, shards, strat, 1)
				if err != nil {
					t.Fatalf("CompileMicro(%d, %v): %v", shards, strat, err)
				}
				got, err := sp.Execute(x)
				sp.Close()
				if err != nil {
					t.Fatalf("sharded %d/%v Execute: %v", shards, strat, err)
				}
				assertEqualOrBothNaN(t, "sharded", want, got)
			}
		}
	})
}

// finiteFeature maps a fuzzed float32 onto the finite values a JSON
// request can carry: NaN becomes 0 and ±Inf the largest finite value of
// that sign.
func finiteFeature(v float32) float32 {
	switch {
	case v != v:
		return 0
	case v > math.MaxFloat32:
		return math.MaxFloat32
	case v < -math.MaxFloat32:
		return -math.MaxFloat32
	}
	return v
}

// assertEqualOrBothNaN fails unless every element of got equals want's,
// or both are NaN.
func assertEqualOrBothNaN(t *testing.T, tag string, want, got *tensor.Matrix) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", tag, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i, w := range want.Data {
		if g := got.Data[i]; w != g && !(w != w && g != g) {
			t.Fatalf("%s: element %d differs: %g vs %g", tag, i, w, g)
		}
	}
}
