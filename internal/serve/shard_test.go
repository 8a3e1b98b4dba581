package serve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ipu"
	"repro/internal/nn"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// shardedRegistry builds a 4-IPU registry with the given per-IPU budget.
func shardedRegistry(t *testing.T, budget, fixed int) *Registry {
	t.Helper()
	r := NewRegistry(Options{
		Batcher:        BatcherConfig{MaxBatch: 8, Workers: 2},
		NumIPUs:        4,
		PerIPUMemBytes: budget,
		Shards:         fixed,
	})
	t.Cleanup(r.Close)
	return r
}

// settledGoroutines polls for up to 2 s until at most want goroutines
// run, and returns the last count. Closed sharded plans' workers exit
// asynchronously, hence the poll; it never forces a collection, so a plan
// that only a finalizer would stop keeps the count up.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRegistryShardedPlansStopOnReplace pins sharded-plan ownership
// across model churn: a 2-IPU model serves, is replaced twice and is
// removed, while a second one stays until the registry closes. Each
// eviction closes the plans it drops, so the workers of every plan either
// model compiled end without a garbage collection.
func TestRegistryShardedPlansStopOnReplace(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := NewRegistry(Options{Batcher: BatcherConfig{MaxBatch: 8, Workers: 2}, NumIPUs: 2, Shards: 2})
	use := func(m *Model) {
		if m.Shards() != 2 {
			t.Fatalf("model %q runs on %d IPUs, want 2", m.Info().Name, m.Shards())
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := m.Predict(context.Background(), make([]float32, m.spec.N)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if ok, msg := m.Ready(); !ok {
			t.Fatalf("model %q not ready: %s", m.Info().Name, msg)
		}
	}
	for _, name := range []string{"churn", "churn", "churn", "stays"} {
		m, err := reg.Register(spec(name, nn.Baseline))
		if err != nil {
			t.Fatal(err)
		}
		use(m)
	}
	if !reg.Remove("churn") {
		t.Fatal("Remove found no model")
	}
	reg.Close()
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines 2 s after the registry closed, %d before it opened", n, before)
	}
}

// TestRegistryAutoShardSelection asserts the acceptance criterion: the
// registry picks the smallest shard count whose per-IPU footprint fits the
// memory budget, and serving through the sharded plans stays bit-for-bit
// correct.
func TestRegistryAutoShardSelection(t *testing.T) {
	sp := spec("m", nn.Baseline)

	// Price the model ourselves to derive budget thresholds.
	net := nn.BuildSHL(sp.Method, sp.N, sp.Classes, rand.New(rand.NewSource(sp.Seed)))
	pl, err := net.CompilePlan(8) // the batcher's pow2 bucket in these tests
	if err != nil {
		t.Fatal(err)
	}
	topo := shard.Topology{NumIPUs: 4, IPU: ipu.GC200(), Link: ipu.IPULink()}
	c1, err := shard.EstimateBudget(pl.Lowering, 8, 1, topo, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Roomy budget: one IPU suffices, no sharding.
	reg := shardedRegistry(t, c1.PerIPUBytes+1, 0)
	m, err := reg.Register(sp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 1 {
		t.Fatalf("roomy budget: model sharded %d-way, want 1", m.Shards())
	}

	// Budget below the single-chip footprint: the registry must shard,
	// picking exactly what the planner calls the smallest fitting count.
	budget := c1.PerIPUBytes - 1
	want, fits, err := shard.FitShards(pl.Lowering, 8, topo, budget)
	if err != nil || !fits {
		t.Fatalf("FitShards: fits=%v err=%v", fits, err)
	}
	if want.Shards < 2 {
		t.Fatalf("test setup: expected a budget that forces sharding, got %d", want.Shards)
	}
	reg2 := shardedRegistry(t, budget, 0)
	m2, err := reg2.Register(sp)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Shards() != want.Shards {
		t.Fatalf("auto-pick chose %d shards, planner says %d", m2.Shards(), want.Shards)
	}
	if m2.Info().Shards != want.Shards {
		t.Fatalf("Info().Shards = %d, want %d", m2.Info().Shards, want.Shards)
	}

	// Serving through the sharded plans is still exactly the reference
	// forward pass.
	x := tensor.New(1, sp.N)
	x.FillRandom(rand.New(rand.NewSource(5)), 1)
	wantY := net.Infer(x)
	pred, err := m2.Predict(context.Background(), x.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range pred.Scores {
		if v != wantY.At(0, j) {
			t.Fatalf("sharded score[%d] = %v, want %v (bit-for-bit)", j, v, wantY.At(0, j))
		}
	}

	// The per-request cost report carries the sharding verdict.
	cost, err := m2.ModelledCost(8)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Shards != want.Shards || cost.PerIPUBytes <= 0 || cost.Strategy == "" {
		t.Fatalf("sharded cost not annotated: %+v", cost)
	}
	if cost.PerIPUBytes > budget {
		t.Fatalf("reported per-IPU bytes %d exceed the budget %d it was fit to", cost.PerIPUBytes, budget)
	}
	if cost.ExchangeBytes <= 0 && cost.Strategy == "tensor-parallel" {
		t.Fatal("tensor-parallel cost reports no exchange traffic")
	}

	// Picking the count prices the lowering and builds no plan: registering
	// a 1024-wide dense model with the count picked allocates no more than
	// registering it with the count fixed, where a plan would add the
	// 4 MiB pack of its dense weight.
	wide := ModelSpec{Name: "wide", Method: nn.Baseline, N: 1024, Classes: 10, Seed: 42}
	registerAllocs := func(shards int) uint64 {
		reg := NewRegistry(Options{Batcher: BatcherConfig{MaxBatch: 8, Workers: 2}, NumIPUs: 4, Shards: shards})
		defer reg.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := reg.Register(wide)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if m.Shards() != 1 {
			t.Fatalf("the wide model runs on %d IPUs, want 1", m.Shards())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	fixed, picked := registerAllocs(1), registerAllocs(0)
	t.Logf("registering allocated %.2f MiB with the shard count fixed, %.2f MiB with it picked",
		float64(fixed)/(1<<20), float64(picked)/(1<<20))
	if picked > fixed+1<<20 {
		t.Fatalf("picking the shard count allocated %d bytes more than fixing it: a plan was built", picked-fixed)
	}
}

// TestRegistryFixedShards pins the shard count explicitly.
func TestRegistryFixedShards(t *testing.T) {
	reg := shardedRegistry(t, 0, 2)
	m, err := reg.Register(spec("m", nn.Butterfly))
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 2 {
		t.Fatalf("fixed shards: got %d, want 2", m.Shards())
	}
	x := tensor.New(1, 64)
	x.FillRandom(rand.New(rand.NewSource(9)), 1)
	ref := nn.BuildSHL(nn.Butterfly, 64, 10, rand.New(rand.NewSource(42)))
	want := ref.Infer(x)
	pred, err := m.Predict(context.Background(), x.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range pred.Scores {
		if v != want.At(0, j) {
			t.Fatalf("score[%d] = %v, want %v", j, v, want.At(0, j))
		}
	}
}

// TestRegistryConcurrentLookupsAndChurn races Predict, Ready and
// ModelledCost on 1-, 2- and 4-IPU models against another goroutine that
// replaces and removes them — run under -race, so plans are instanced
// from a packed lowering other workers execute while their model stops.
// Every call must answer with scores equal to Infer's, a cost, or a clean
// ErrStopped; once every model is gone, every program of every version
// seen must be closed and idle, no priced program may count as an entry,
// and every sharded plan's workers must have ended without a collection.
func TestRegistryConcurrentLookupsAndChurn(t *testing.T) {
	before := runtime.NumGoroutine()
	sp := spec("m", nn.Butterfly)
	x := tensor.New(1, sp.N)
	x.FillRandom(rand.New(rand.NewSource(3)), 1)
	want := nn.BuildSHL(sp.Method, sp.N, sp.Classes, rand.New(rand.NewSource(sp.Seed))).Infer(x)
	var regs []*Registry
	for _, ipus := range []int{1, 2, 4} {
		reg := NewRegistry(Options{Batcher: BatcherConfig{MaxBatch: 8, Workers: 2}, NumIPUs: ipus, Shards: ipus})
		if _, err := reg.Register(sp); err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg)
	}

	const loops = 30
	var (
		mu   sync.Mutex
		seen = map[*Model]bool{}
		wg   sync.WaitGroup
	)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				m, ok := regs[(g+i)%len(regs)].Get(sp.Name)
				if !ok {
					continue
				}
				mu.Lock()
				seen[m] = true
				mu.Unlock()
				switch (g + i) % 3 {
				case 0:
					pred, err := m.Predict(context.Background(), x.Row(0))
					if errors.Is(err, ErrStopped) {
						continue
					}
					if err != nil {
						t.Errorf("Predict: %v", err)
						return
					}
					for j, v := range pred.Scores {
						if v != want.At(0, j) {
							t.Errorf("Predict on %d IPUs: score[%d] = %v, want %v", m.Shards(), j, v, want.At(0, j))
							return
						}
					}
				case 1:
					m.Ready()
				case 2:
					if _, err := m.ModelledCost(1 << (i % 4)); err != nil {
						t.Errorf("ModelledCost: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			reg := regs[i%len(regs)]
			if i%4 == 3 {
				reg.Remove(sp.Name)
			} else if _, err := reg.Register(sp); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	for i, reg := range regs {
		// Remove one registry's model, close the others with theirs.
		if i == 0 {
			reg.Remove(sp.Name)
		} else {
			reg.Close()
		}
		if s := reg.CacheStats(); s.Entries != 0 {
			t.Errorf("%d entries once the model is gone, want 0", s.Entries)
		}
	}
	for m := range seen {
		for _, p := range m.progs {
			p.mu.Lock()
			closed, idle := p.closed, len(p.idle)
			p.mu.Unlock()
			if !closed || idle != 0 {
				t.Errorf("a stopped model's bucket-%d program on %d IPUs: closed %v with %d idle plans", p.batch, m.Shards(), closed, idle)
			}
		}
	}
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines 2 s after every model stopped, %d before the test", n, before)
	}
}

// TestProgramClosesPlanReturnedAfterEvict: a caller holding a sharded plan
// across its model's removal keeps using it, handing it back closes it,
// and the stopped model's program never hands a closed plan out again.
func TestProgramClosesPlanReturnedAfterEvict(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := NewRegistry(Options{Batcher: BatcherConfig{MaxBatch: 8, Workers: 2}, NumIPUs: 2, Shards: 2})
	sp := spec("m", nn.Baseline)
	m, err := reg.Register(sp)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.program(4)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.GetPlan()
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Remove(sp.Name) {
		t.Fatal("Remove found no model")
	}
	if _, err := pl.Execute(tensor.New(4, sp.N)); err != nil {
		t.Fatalf("Execute after the removal: %v", err)
	}
	p.PutPlan(pl)
	next, err := p.GetPlan()
	if err != nil {
		t.Fatal(err)
	}
	if next == pl {
		t.Fatal("a stopped model's program handed out the plan it closed")
	}
	p.PutPlan(next)
	reg.Close()
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines 2 s after both plans came back, %d before the test", n, before)
	}
}

// panicPlan is an executor whose Execute panics, as a kernel bug would.
type panicPlan struct{ closed atomic.Bool }

func (p *panicPlan) Execute(*tensor.Matrix) (*tensor.Matrix, error) { panic("kernel bug") }
func (p *panicPlan) MaxBatch() int                                  { return 1 }
func (p *panicPlan) Close()                                         { p.closed.Store(true) }

// TestRunBatchClosesPanickedPlan: a plan whose Execute panicked may still
// have tokens in flight, so the batch path closes it rather than handing
// it back, and fails only that batch. The free list is LIFO, so a
// panicked plan handed back would also fail the next batch.
func TestRunBatchClosesPanickedPlan(t *testing.T) {
	reg := testRegistry(t)
	m, err := reg.Register(spec("m", nn.Butterfly))
	if err != nil {
		t.Fatal(err)
	}
	prog := m.progs[0]
	bad := &panicPlan{}
	prog.PutPlan(bad)
	x := make([]float32, m.spec.N)
	if _, err := m.Predict(context.Background(), x); err == nil || !strings.Contains(err.Error(), "inference panic") {
		t.Fatalf("Predict on a panicking plan: err = %v, want an inference panic", err)
	}
	if !bad.closed.Load() {
		t.Fatal("the panicked plan was not closed")
	}
	if _, err := m.Predict(context.Background(), x); err != nil {
		t.Fatalf("Predict after the panic: %v", err)
	}
}

// TestRegistryFixedShardsRoundsToPow2: a fixed -shards 3 must not produce
// a model the shard compiler rejects on every batch (silent Infer
// fallback); it rounds down to a power of two. A fixed count beyond the
// topology is cut to the topology's IPUs.
func TestRegistryFixedShardsRoundsToPow2(t *testing.T) {
	reg := shardedRegistry(t, 0, 3)
	m, err := reg.Register(spec("m", nn.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 2 {
		t.Fatalf("fixed shards 3: got %d, want 2 (rounded down)", m.Shards())
	}
	if cost, err := m.ModelledCost(4); err != nil || cost.Shards != 2 {
		t.Fatalf("ModelledCost after rounding: cost=%+v err=%v", cost, err)
	}
	small := NewRegistry(Options{Batcher: BatcherConfig{MaxBatch: 8, Workers: 1}, NumIPUs: 2, Shards: 8})
	t.Cleanup(small.Close)
	m, err = small.Register(spec("m", nn.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 2 {
		t.Fatalf("fixed shards 8 on 2 IPUs: got %d, want 2", m.Shards())
	}
}
