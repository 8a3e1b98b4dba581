package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/pixelfly"
	"repro/internal/tensor"
)

// warmWorkspaces is the oracle of the declared demand: it empties every
// shard's workspace and executes the plan twice at MaxBatch rows of
// zeros, the warm-up every sharded plan used to run, so each workspace
// grows to its high-water mark.
func warmWorkspaces(t testing.TB, sp *ShardedPlan) []tensor.Scratch {
	t.Helper()
	for k := range sp.ws {
		sp.ws[k] = tensor.NewWorkspace(tensor.Scratch{})
	}
	warm := tensor.New(sp.maxBatch, sp.in)
	for i := 0; i < 2; i++ {
		if _, err := sp.Execute(warm); err != nil {
			t.Fatalf("warm-up Execute: %v", err)
		}
	}
	return capacities(sp)
}

// capacities reads every shard's workspace backing.
func capacities(sp *ShardedPlan) []tensor.Scratch {
	out := make([]tensor.Scratch, len(sp.ws))
	for k, ws := range sp.ws {
		out[k] = ws.Capacity()
	}
	return out
}

// fillSudogCaches parks and wakes a few hundred goroutines, which leaves
// the runtime's per-P caches of channel-wait records full: the first park
// of a fresh plan's workers then takes its records from them, so what a
// first Execute allocates is the plan's alone.
func fillSudogCaches() {
	var wg sync.WaitGroup
	ch := make(chan struct{})
	for i := 0; i < 256; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ch
		}()
	}
	close(ch)
	wg.Wait()
}

// callAllocs counts the heap allocations of exactly one call of f.
func callAllocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestShardedDeclaredScratch pins the sizing contract of sharded plans:
// every kernel takes exactly the scratch it declares, and every shard's
// workspace holds exactly what the warm-up oracle leaves,
// from the kernels' declarations alone, and the first Execute at full
// rows allocates nothing. It covers every family, fused and unfused, at
// every bucket from 1 to 64, under the pipeline at 2 and 4 shards and
// M = 1, 2 and 4, and under tensor parallelism at 2 and 4 shards where
// the lowering splits. Pixelfly on 16-wide blocks, with and without its
// low-rank term, and a compressed net with a FactorizedDense cover the
// split kernels that declare differently.
func TestShardedDeclaredScratch(t *testing.T) {
	const n, classes = 64, 10
	nets := map[string]*nn.Sequential{}
	for _, m := range nn.AllMethods {
		nets[m.String()] = nn.BuildSHL(m, n, classes, rand.New(rand.NewSource(71)))
	}
	for _, r := range []int{0, 8} {
		net, err := nn.BuildSHLPixelfly(pixelfly.Config{N: n, BlockSize: 16, ButterflySize: 16, LowRank: r}, classes, rand.New(rand.NewSource(72)))
		if err != nil {
			t.Fatalf("BuildSHLPixelfly: %v", err)
		}
		nets[fmt.Sprintf("pixelfly-block16-rank%d", r)] = net
	}
	var err error
	nets["compressed"], _, err = nn.BuildSHL(nn.Baseline, n, classes, rand.New(rand.NewSource(3))).Compress(nn.CompressOptions{Tolerance: 0.7, Seed: 5})
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	type config struct {
		shards, micro int
		strat         Strategy
	}
	topo := DefaultTopology(4)
	for name, net := range nets {
		for _, opts := range []nn.PlanOptions{{}, {NoFuse: true}} {
			low, err := net.Lower(opts)
			if err != nil {
				t.Fatalf("%s: Lower: %v", name, err)
			}
			packed := low.Pack()
			var configs []config
			for _, s := range []int{2, 4} {
				for _, m := range []int{1, 2, 4} {
					configs = append(configs, config{s, m, Pipeline})
				}
				if Splittable(low, s) == nil {
					configs = append(configs, config{s, 1, TensorParallel})
				}
			}
			for _, c := range configs {
				for mb := 1; mb <= 64; mb *= 2 {
					tag := fmt.Sprintf("%s fuse=%v %v shards=%d micro=%d rows=%d", name, !opts.NoFuse, c.strat, c.shards, c.micro, mb)
					oracle, err := CompileMicro(packed, mb, topo, c.shards, c.strat, c.micro)
					if err != nil {
						t.Fatalf("%s: CompileMicro: %v", tag, err)
					}
					// Each kernel of each micro-step, run once on a
					// workspace that starts empty, takes exactly what it
					// declares; a declaration a shard's maximum would hide
					// shows here.
					inW := oracle.in
					for i := range oracle.steps {
						st := &oracle.steps[i]
						for k, run := range st.run {
							if run == nil {
								continue
							}
							ws := tensor.NewWorkspace(tensor.Scratch{})
							ws.Reset()
							run(tensor.New(mb, st.cols), tensor.New(mb, inW), ws)
							ws.Reset()
							if got, want := ws.Capacity(), st.demand(k, mb); got != want {
								t.Errorf("%s: micro-step %d (%s) on shard %d took %+v, declares %+v", tag, i, st.name, k, got, want)
							}
						}
						inW = st.cols
					}
					want := warmWorkspaces(t, oracle)
					oracle.Close()
					x := tensor.New(mb, n)
					x.FillRandom(rand.New(rand.NewSource(int64(mb))), 1)
					// The pipeline runs the lowering's own kernels, so the
					// dense layer splits its rows over tensor.ParallelRows,
					// whose goroutines allocate: TestPlanSteadyStateAllocs'
					// budget per micro-batch.
					budget := uint64(0)
					if c.strat == Pipeline && name == nn.Baseline.String() {
						budget = 8 * uint64(c.micro)
					}
					// An allocation of the plan's own shows in every fresh
					// plan; the runtime's background work in one reading
					// at most, so a second and third plan are read before
					// the first Execute counts as allocating.
					allocs := ^uint64(0)
					for try := 0; try < 3 && allocs > budget; try++ {
						sp, err := CompileMicro(packed, mb, topo, c.shards, c.strat, c.micro)
						if err != nil {
							t.Fatalf("%s: CompileMicro: %v", tag, err)
						}
						for k, got := range capacities(sp) {
							if got != want[k] {
								t.Errorf("%s: shard %d workspace holds %+v, warm-up oracle %+v", tag, k, got, want[k])
							}
						}
						fillSudogCaches()
						allocs = min(allocs, callAllocs(func() { sp.Execute(x) }))
						sp.Close()
					}
					if allocs > budget {
						t.Errorf("%s: first Execute allocated %d objects, want at most %d", tag, allocs, budget)
					}
				}
			}
		}
	}
}
