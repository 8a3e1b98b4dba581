package shard

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// At n = 256 every shard of 4 gets one of pixelfly's 64-wide block rows.
const testN, testClasses, testMaxBatch = 256, 10, 16

// Compile partitions a packed lowering across shards IPUs of the
// topology for batches of up to maxBatch rows under the planner's
// strategy and wavefront width at the full chip budget: the serving
// layer's path through EstimateBudget and CompileMicro.
func Compile(low *nn.Lowering, maxBatch int, topo Topology, shards int) (*ShardedPlan, error) {
	cost, err := Estimate(low, maxBatch, shards, topo)
	if err != nil {
		return nil, err
	}
	return CompileMicro(low, maxBatch, topo, shards, cost.Strategy, cost.MicroBatches)
}

func buildPlan(t testing.TB, method nn.Method, seed int64) (*nn.Sequential, *nn.Plan) {
	t.Helper()
	net := nn.BuildSHL(method, testN, testClasses, rand.New(rand.NewSource(seed)))
	pl, err := net.CompilePlan(testMaxBatch)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	return net, pl
}

// TestShardedMatchesPlanAllMethods asserts the tentpole contract: for all
// six operator families, at 1, 2 and 4 shards, under whichever strategy
// the planner picks AND under pipeline explicitly, ShardedPlan.Execute is
// bit-for-bit equal to the unsharded nn.Plan.Execute.
func TestShardedMatchesPlanAllMethods(t *testing.T) {
	topo := DefaultTopology(4)
	for _, method := range nn.AllMethods {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			_, pl := buildPlan(t, method, 7)
			rng := rand.New(rand.NewSource(99))
			for _, shards := range []int{1, 2, 4} {
				strategies := []Strategy{Pipeline}
				if Splittable(pl.Lowering, shards) == nil {
					strategies = append(strategies, TensorParallel)
				}
				for _, strat := range strategies {
					sp, err := CompileMicro(pl.Lowering, pl.MaxBatch(), topo, shards, strat, 1)
					if err != nil {
						t.Fatalf("CompileMicro(%d, %v): %v", shards, strat, err)
					}
					// Every micro-step reports the kernel variant of its
					// source plan step, except the stage sweeps of a
					// tensor-parallel butterfly, which run the
					// element-wise window kernel.
					for i, st := range sp.steps {
						want := pl.StepVariant(st.src)
						if strings.Contains(st.name, "/tp:stage") {
							want = "reference"
						}
						if got := sp.StepVariant(i); got != want {
							t.Fatalf("shards=%d %v step %d (%s): variant %q, want %q", shards, strat, i, st.name, got, want)
						}
					}
					for _, batch := range []int{1, 3, testMaxBatch} {
						x := tensor.New(batch, testN)
						x.FillRandom(rng, 1)
						want, err := pl.Execute(x)
						if err != nil {
							t.Fatal(err)
						}
						got, err := sp.Execute(x)
						if err != nil {
							t.Fatalf("shards=%d %v batch=%d: %v", shards, strat, batch, err)
						}
						if d := tensor.MaxAbsDiff(want, got); d != 0 {
							t.Fatalf("shards=%d %v batch=%d: differs from plan by %g (want bit-for-bit)",
								shards, strat, batch, d)
						}
					}
					sp.Close()
				}
			}
		})
	}
}

// TestTensorParallelIdleShardsMatchPlan splits a pixelfly SHL with
// fewer block rows than shards: at N = 64 the layer is one 64-wide block
// row, so on 2 and 4 shards one shard runs the whole pixelfly step and
// the others idle, as some do on the 10-class head. The plan still
// matches nn.Plan.Execute bit for bit, and the planner prices the busy
// shard holding the whole layer.
func TestTensorParallelIdleShardsMatchPlan(t *testing.T) {
	const n = 64
	net := nn.BuildSHL(nn.Pixelfly, n, testClasses, rand.New(rand.NewSource(71)))
	pl, err := net.CompilePlan(testMaxBatch)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	topo := DefaultTopology(4)
	rng := rand.New(rand.NewSource(72))
	for _, shards := range []int{2, 4} {
		if err := Splittable(pl.Lowering, shards); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		cost, err := estimateWith(pl.Lowering, testMaxBatch, shards, topo, TensorParallel)
		if err != nil {
			t.Fatal(err)
		}
		if cost.PerIPUWeightBytes < pl.Step(0).Bytes {
			t.Errorf("%d shards: per-IPU weight bytes %d below the pixelfly step's %d", shards, cost.PerIPUWeightBytes, pl.Step(0).Bytes)
		}
		sp, err := CompileMicro(pl.Lowering, pl.MaxBatch(), topo, shards, TensorParallel, 1)
		if err != nil {
			t.Fatalf("CompileMicro(%d): %v", shards, err)
		}
		busy := 0
		for _, run := range sp.steps[0].run {
			if run != nil {
				busy++
			}
		}
		if busy != 1 {
			t.Errorf("%d shards: %d shards run the pixelfly step, want 1", shards, busy)
		}
		for _, batch := range []int{1, 3, testMaxBatch} {
			x := tensor.New(batch, n)
			x.FillRandom(rng, 1)
			want, err := pl.Execute(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sp.Execute(x)
			if err != nil {
				t.Fatalf("shards=%d batch=%d: %v", shards, batch, err)
			}
			if d := tensor.MaxAbsDiff(want, got); d != 0 {
				t.Fatalf("shards=%d batch=%d: differs from plan by %g (want bit-for-bit)", shards, batch, d)
			}
		}
		sp.Close()
	}
}

// TestShardedMatchesPlanCompressed covers the post-hoc compressed layer
// mix (FactorizedDense / structured swaps) the registry also serves.
func TestShardedMatchesPlanCompressed(t *testing.T) {
	net := nn.BuildSHL(nn.Baseline, 64, 10, rand.New(rand.NewSource(3)))
	compressed, _, err := net.Compress(nn.CompressOptions{Tolerance: 0.7, Seed: 5})
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	pl, err := compressed.CompilePlan(8)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	topo := DefaultTopology(4)
	for _, shards := range []int{2, 4} {
		sp, err := Compile(pl.Lowering, pl.MaxBatch(), topo, shards)
		if err != nil {
			t.Fatalf("Compile(%d): %v", shards, err)
		}
		x := tensor.New(5, 64)
		x.FillRandom(rand.New(rand.NewSource(11)), 1)
		want, _ := pl.Execute(x)
		got, err := sp.Execute(x)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("shards=%d: compressed sharded output differs by %g", shards, d)
		}
		sp.Close()
	}
}

// TestTensorParallelSharesPacks pins that a tensor-parallel plan runs
// windows of the packed lowering's own kernels and holds no copy of the
// weights: compiled from one packed lowering of the dense and of the
// compressed (FactorizedDense) SHL at 2 and 4 shards, it allocates less
// than the model's parameter bytes, its Lowering is that lowering, and
// neither strategy compiles from an unpacked lowering.
func TestTensorParallelSharesPacks(t *testing.T) {
	const n, rows = 256, 16
	dense := nn.BuildSHL(nn.Baseline, n, testClasses, rand.New(rand.NewSource(61)))
	compressed, _, err := dense.Compress(nn.CompressOptions{Tolerance: 0.7, Seed: 5})
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	topo := DefaultTopology(4)
	for name, net := range map[string]*nn.Sequential{"dense": dense, "compressed": compressed} {
		low, err := net.Lower(nn.PlanOptions{})
		if err != nil {
			t.Fatalf("%s: Lower: %v", name, err)
		}
		for _, strat := range []Strategy{Pipeline, TensorParallel} {
			if sp, err := CompileMicro(low, rows, topo, 2, strat, 1); err == nil {
				sp.Close()
				t.Errorf("%s: %v compiled from an unpacked lowering", name, strat)
			}
		}
		packed := low.Pack()
		paramBytes := 0
		for _, l := range net.Layers {
			paramBytes += 4 * l.ParamCount()
		}
		for _, shards := range []int{2, 4} {
			if err := Splittable(packed, shards); err != nil {
				t.Fatalf("%s at %d shards: %v", name, shards, err)
			}
			// The least of three compiles, so that a background
			// allocation of the runtime cannot fail the test.
			allocated := ^uint64(0)
			for try := 0; try < 3; try++ {
				var sp *ShardedPlan
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				sp, err = CompileMicro(packed, rows, topo, shards, TensorParallel, 1)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("%s at %d shards: CompileMicro: %v", name, shards, err)
				}
				if sp.Lowering() != packed {
					t.Errorf("%s at %d shards: the plan runs lowering %p, compiled from %p", name, shards, sp.Lowering(), packed)
				}
				sp.Close()
				allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
			}
			if allocated >= uint64(paramBytes) {
				t.Errorf("%s at %d shards: compiling allocated %d bytes, not less than the %d parameter bytes",
					name, shards, allocated, paramBytes)
			}
			t.Logf("%s at %d shards: compile allocated %.1f KiB against %.1f KiB of parameters",
				name, shards, float64(allocated)/1024, float64(paramBytes)/1024)
		}
	}
}

// TestShardedRepeatedExecuteIsStable interleaves batch sizes over one
// sharded plan to verify arena reuse never leaks state across executions
// or shards.
func TestShardedRepeatedExecuteIsStable(t *testing.T) {
	_, pl := buildPlan(t, nn.Butterfly, 21)
	sp, err := CompileMicro(pl.Lowering, pl.MaxBatch(), DefaultTopology(4), 4, TensorParallel, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 24; iter++ {
		batch := 1 + iter%testMaxBatch
		x := tensor.New(batch, testN)
		x.FillRandom(rng, 1)
		want, _ := pl.Execute(x)
		got, err := sp.Execute(x)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("iter %d batch %d: diff %g", iter, batch, d)
		}
	}
}

// TestShardedErrors covers the input and compile contracts.
func TestShardedErrors(t *testing.T) {
	_, pl := buildPlan(t, nn.Butterfly, 1)
	topo := DefaultTopology(4)
	if _, err := Compile(pl.Lowering, pl.MaxBatch(), topo, 3); err == nil {
		t.Error("non-power-of-two shard count should fail")
	}
	if _, err := Compile(pl.Lowering, pl.MaxBatch(), topo, 8); err == nil {
		t.Error("shards beyond the topology should fail")
	}
	if _, err := Compile(pl.Lowering, pl.MaxBatch(), topo, 0); err == nil {
		t.Error("zero shards should fail")
	}
	sp, err := Compile(pl.Lowering, pl.MaxBatch(), topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if _, err := sp.Execute(tensor.New(testMaxBatch+1, testN)); !errors.Is(err, nn.ErrPlanBatch) {
		t.Errorf("oversized batch: got %v, want ErrPlanBatch", err)
	}
	if _, err := sp.Execute(tensor.New(2, testN/2)); !errors.Is(err, nn.ErrPlanWidth) {
		t.Errorf("wrong width: got %v, want ErrPlanWidth", err)
	}
	// Fastfood cannot tensor-parallel split; forcing it must fail cleanly.
	_, fp := buildPlan(t, nn.Fastfood, 2)
	if _, err := CompileMicro(fp.Lowering, fp.MaxBatch(), topo, 2, TensorParallel, 1); err == nil {
		t.Error("forcing tensor-parallel on fastfood should fail")
	}
}

// TestShardedZeroAllocSteadyState asserts the pooled-serving contract:
// after warm-up, Execute allocates nothing, at any shard count, including
// the butterfly exchange stages and the goroutine-per-IPU dispatch.
func TestShardedZeroAllocSteadyState(t *testing.T) {
	for _, method := range []nn.Method{nn.Baseline, nn.Butterfly, nn.Pixelfly} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			_, pl := buildPlan(t, method, 17)
			for _, shards := range []int{2, 4} {
				sp, err := CompileMicro(pl.Lowering, pl.MaxBatch(), DefaultTopology(4), shards, TensorParallel, 1)
				if err != nil {
					t.Fatal(err)
				}
				x := tensor.New(testMaxBatch, testN)
				x.FillRandom(rand.New(rand.NewSource(18)), 1)
				if _, err := sp.Execute(x); err != nil {
					t.Fatal(err)
				}
				avg := testing.AllocsPerRun(20, func() { sp.Execute(x) })
				if avg != 0 {
					t.Errorf("shards=%d: Execute allocates %.1f objects per run, want 0", shards, avg)
				}
				sp.Close()
			}
		})
	}
}

// TestWavefrontMatchesPlan pins the tentpole contract of the
// multi-micro-batch executor: pipeline plans compiled at wavefront
// widths 1, 2 and 4 stay bit-for-bit equal to the unsharded plan at
// every batch size — including batches smaller than the width (the
// executor clamps to one row per micro-batch) and single rows.
func TestWavefrontMatchesPlan(t *testing.T) {
	for _, method := range []nn.Method{nn.Baseline, nn.Butterfly, nn.Fastfood} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			_, pl := buildPlan(t, method, 7)
			rng := rand.New(rand.NewSource(133))
			for _, shards := range []int{2, 4} {
				for _, micro := range []int{1, 2, 4} {
					sp, err := CompileMicro(pl.Lowering, pl.MaxBatch(), DefaultTopology(shards), shards, Pipeline, micro)
					if err != nil {
						t.Fatalf("CompileMicro(%d, %d): %v", shards, micro, err)
					}
					for _, batch := range []int{1, 3, 5, testMaxBatch} {
						x := tensor.New(batch, testN)
						x.FillRandom(rng, 1)
						want, err := pl.Execute(x)
						if err != nil {
							t.Fatal(err)
						}
						got, err := sp.Execute(x)
						if err != nil {
							t.Fatalf("shards=%d micro=%d batch=%d: %v", shards, micro, batch, err)
						}
						if d := tensor.MaxAbsDiff(want, got); d != 0 {
							t.Fatalf("shards=%d micro=%d batch=%d: differs from plan by %g (want bit-for-bit)",
								shards, micro, batch, d)
						}
					}
					sp.Close()
				}
			}
		})
	}
}

// TestWavefrontZeroAlloc asserts the wavefront executor keeps the
// pooled-serving contract: steady-state Execute allocates nothing, with
// the stage-local token handoffs and micro-batch headers all reused.
func TestWavefrontZeroAlloc(t *testing.T) {
	_, pl := buildPlan(t, nn.Butterfly, 17)
	sp, err := CompileMicro(pl.Lowering, pl.MaxBatch(), DefaultTopology(2), 2, Pipeline, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	x := tensor.New(testMaxBatch, testN)
	x.FillRandom(rand.New(rand.NewSource(18)), 1)
	if _, err := sp.Execute(x); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() { sp.Execute(x) }); avg != 0 {
		t.Errorf("wavefront Execute allocates %.1f objects per run, want 0", avg)
	}
}

// TestPipelineStageClamp covers shards > NumSteps: a 3-step plan on an
// 8-IPU request must clamp to 3 effective stages — in the engine (no
// idle tracks skewing the bubble gauge), in the cost model
// (PipelineStages), and still execute bit-for-bit at one micro-batch and
// at four.
func TestPipelineStageClamp(t *testing.T) {
	net := nn.BuildSHL(nn.Baseline, testN, testClasses, rand.New(rand.NewSource(5)))
	pl, err := net.CompilePlanOpts(testMaxBatch, nn.PlanOptions{NoFuse: true})
	if err != nil {
		t.Fatalf("CompilePlanOpts: %v", err)
	}
	if pl.NumSteps() != 3 {
		t.Fatalf("unfused SHL plan has %d steps, test wants 3", pl.NumSteps())
	}
	cost, err := Estimate(pl.Lowering, testMaxBatch, 8, DefaultTopology(8))
	if err != nil {
		t.Fatal(err)
	}
	if cost.Strategy == Pipeline && cost.PipelineStages != 3 {
		t.Errorf("cost.PipelineStages = %d, want 3", cost.PipelineStages)
	}
	for _, micro := range []int{1, 4} {
		sp, err := CompileMicro(pl.Lowering, pl.MaxBatch(), DefaultTopology(8), 8, Pipeline, micro)
		if err != nil {
			t.Fatalf("CompileMicro(8, %d): %v", micro, err)
		}
		if sp.Shards() != 3 {
			t.Errorf("micro=%d: Shards() = %d, want 3 (clamped to step count)", micro, sp.Shards())
		}
		x := tensor.New(testMaxBatch, testN)
		x.FillRandom(rand.New(rand.NewSource(6)), 1)
		want, _ := pl.Execute(x)
		got, err := sp.Execute(x)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Errorf("micro=%d: clamped pipeline differs by %g", micro, d)
		}
		sp.Close()
	}
}

// TestPipelineOwnersContiguous checks the stage assignment invariants.
func TestPipelineOwnersContiguous(t *testing.T) {
	_, pl := buildPlan(t, nn.Baseline, 9)
	for _, shards := range []int{1, 2, 4} {
		owners := pipelineOwners(stepBytes(pl.Lowering), shards)
		if len(owners) != pl.NumSteps() {
			t.Fatalf("shards=%d: %d owners for %d steps", shards, len(owners), pl.NumSteps())
		}
		prev := 0
		for i, o := range owners {
			if o < prev || o > prev+1 || o >= shards {
				t.Fatalf("shards=%d: owner sequence %v not monotone-contiguous at %d", shards, owners, i)
			}
			prev = o
		}
	}
}

// BenchmarkPipelinedExecute compares the wavefront at one micro-batch
// (M=1, the stages in series) against M=4 on the CI reference shape:
// butterfly, 2 shards, pipeline, full batch.
func BenchmarkPipelinedExecute(b *testing.B) {
	for _, micro := range []int{1, 4} {
		b.Run("micro="+string(rune('0'+micro)), func(b *testing.B) {
			_, pl := buildPlan(b, nn.Butterfly, 40)
			sp, err := CompileMicro(pl.Lowering, pl.MaxBatch(), DefaultTopology(2), 2, Pipeline, micro)
			if err != nil {
				b.Fatal(err)
			}
			defer sp.Close()
			x := tensor.New(testMaxBatch, testN)
			x.FillRandom(rand.New(rand.NewSource(41)), 1)
			if _, err := sp.Execute(x); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sp.Execute(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedPredict measures steady-state sharded execution of a
// full SHL batch — the acceptance benchmark: 0 allocs/op.
func BenchmarkShardedPredict(b *testing.B) {
	for _, method := range []nn.Method{nn.Baseline, nn.Butterfly} {
		for _, shards := range []int{1, 2, 4} {
			b.Run(method.String()+"/shards="+string(rune('0'+shards)), func(b *testing.B) {
				_, pl := buildPlan(b, method, 40)
				sp, err := Compile(pl.Lowering, pl.MaxBatch(), DefaultTopology(4), shards)
				if err != nil {
					b.Fatal(err)
				}
				defer sp.Close()
				x := tensor.New(testMaxBatch, testN)
				x.FillRandom(rand.New(rand.NewSource(41)), 1)
				if _, err := sp.Execute(x); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sp.Execute(x); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
