package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry(Options{
		Batcher: BatcherConfig{MaxBatch: 8, Workers: 2},
	})
	t.Cleanup(r.Close)
	return r
}

func spec(name string, m nn.Method) ModelSpec {
	return ModelSpec{Name: name, Method: m, N: 64, Classes: 10, Seed: 42}
}

// TestPredictMatchesDirectInfer checks the whole serving path — registry,
// batcher, response splitting — returns exactly what a direct forward pass
// of the same weights would.
func TestPredictMatchesDirectInfer(t *testing.T) {
	reg := testRegistry(t)
	for _, method := range nn.AllMethods {
		sp := spec("m-"+method.String(), method)
		m, err := reg.Register(sp)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}

		// The same constructor sequence yields the same weights.
		ref := nn.BuildSHL(method, sp.N, sp.Classes, rand.New(rand.NewSource(sp.Seed)))
		x := tensor.New(1, sp.N)
		x.FillRandom(rand.New(rand.NewSource(5)), 1)
		want := ref.Forward(x)

		pred, err := m.Predict(context.Background(), x.Row(0))
		if err != nil {
			t.Fatalf("%v: Predict: %v", method, err)
		}
		if len(pred.Scores) != sp.Classes {
			t.Fatalf("%v: %d scores, want %d", method, len(pred.Scores), sp.Classes)
		}
		for j, v := range pred.Scores {
			if v != want.At(0, j) {
				t.Fatalf("%v: score[%d] = %v, want %v", method, j, v, want.At(0, j))
			}
		}
		if pred.ArgMax != stats.ArgMax(want.Row(0)) {
			t.Fatalf("%v: argmax %d, want %d", method, pred.ArgMax, stats.ArgMax(want.Row(0)))
		}
		if pred.BatchSize < 1 {
			t.Fatalf("%v: batch size %d", method, pred.BatchSize)
		}
		if pred.IPU == nil {
			t.Fatalf("%v: missing modelled IPU cost", method)
		}
		if pred.IPU.LatencySeconds <= 0 || pred.IPU.PeakTileBytes <= 0 {
			t.Fatalf("%v: degenerate IPU cost %+v", method, pred.IPU)
		}
	}
}

func TestRegisterVersioning(t *testing.T) {
	reg := testRegistry(t)
	m1, err := reg.Register(spec("a", nn.Butterfly))
	if err != nil {
		t.Fatal(err)
	}
	if m1.Info().Version != 1 {
		t.Fatalf("first version = %d, want 1", m1.Info().Version)
	}
	m2, err := reg.Register(spec("a", nn.Butterfly))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Info().Version != 2 {
		t.Fatalf("second version = %d, want 2", m2.Info().Version)
	}
	// The replaced model is stopped.
	if _, err := m1.Predict(context.Background(), make([]float32, 64)); err != ErrStopped {
		t.Fatalf("old model Predict = %v, want ErrStopped", err)
	}
	// The registry serves the new one.
	got, ok := reg.Get("a")
	if !ok || got != m2 {
		t.Fatal("Get did not return the replacement model")
	}
	// Remove + re-register continues the version sequence.
	if !reg.Remove("a") {
		t.Fatal("Remove returned false for a registered model")
	}
	m3, err := reg.Register(spec("a", nn.Butterfly))
	if err != nil {
		t.Fatal(err)
	}
	if m3.Info().Version != 3 {
		t.Fatalf("post-remove version = %d, want 3", m3.Info().Version)
	}
}

// TestReplaceAndRemoveEvictPrograms pins the cache-lifecycle contract: a
// replaced or removed model's compiled programs (which hold the whole
// network plus plan pools) must leave the cache, so redeploy cycles don't
// grow process memory without bound.
func TestReplaceAndRemoveEvictPrograms(t *testing.T) {
	reg := testRegistry(t)
	sp := spec("evict", nn.Butterfly)
	m1, err := reg.Register(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Predict(context.Background(), make([]float32, sp.N)); err != nil {
		t.Fatal(err)
	}
	entriesV1 := reg.CacheStats().Entries
	if entriesV1 == 0 {
		t.Fatal("no cache entries after first predict")
	}

	m2, err := reg.Register(sp) // replace: v1's programs must be evicted
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Predict(context.Background(), make([]float32, sp.N)); err != nil {
		t.Fatal(err)
	}
	if got := reg.CacheStats().Entries; got > entriesV1 {
		t.Fatalf("entries grew from %d to %d across a replace; old version leaked", entriesV1, got)
	}

	if !reg.Remove("evict") {
		t.Fatal("Remove returned false")
	}
	if got := reg.CacheStats().Entries; got != 0 {
		t.Fatalf("entries = %d after Remove, want 0", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	reg := testRegistry(t)
	bad := []ModelSpec{
		{Name: "", Method: nn.Baseline, N: 64, Classes: 10},
		{Name: "x", Method: nn.Baseline, N: 63, Classes: 10},
		{Name: "x", Method: nn.Baseline, N: 0, Classes: 10},
		{Name: "x", Method: nn.Baseline, N: 64, Classes: 0},
	}
	for i, sp := range bad {
		if _, err := reg.Register(sp); err == nil {
			t.Errorf("case %d: Register(%+v) succeeded, want error", i, sp)
		}
	}
}

func TestListSortedAndComplete(t *testing.T) {
	reg := testRegistry(t)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := reg.Register(spec(name, nn.LowRank)); err != nil {
			t.Fatal(err)
		}
	}
	infos := reg.List()
	if len(infos) != 3 {
		t.Fatalf("List returned %d models, want 3", len(infos))
	}
	wantOrder := []string{"alpha", "mid", "zeta"}
	for i, info := range infos {
		if info.Name != wantOrder[i] {
			t.Fatalf("List order %v, want %v", infos, wantOrder)
		}
		if info.Params <= 0 {
			t.Fatalf("%s: params = %d", info.Name, info.Params)
		}
	}
}

func TestPredictWrongWidth(t *testing.T) {
	reg := testRegistry(t)
	m, err := reg.Register(spec("w", nn.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(context.Background(), make([]float32, 10)); err == nil {
		t.Fatal("Predict with wrong feature width succeeded")
	}
}

// TestConcurrentPredictSharedModel is the subsystem's core concurrency
// claim, meaningful under -race: many goroutines share one model.
func TestConcurrentPredictSharedModel(t *testing.T) {
	reg := testRegistry(t)
	m, err := reg.Register(spec("hot", nn.Butterfly))
	if err != nil {
		t.Fatal(err)
	}
	features := make([]float32, 64)
	for i := range features {
		features[i] = float32(i) / 64
	}
	want, err := m.Predict(context.Background(), features)
	if err != nil {
		t.Fatal(err)
	}

	const workers, iters = 16, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, err := m.Predict(context.Background(), features)
				if err != nil {
					t.Errorf("Predict: %v", err)
					return
				}
				for j := range want.Scores {
					if got.Scores[j] != want.Scores[j] {
						t.Errorf("concurrent Predict diverged at score %d", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	st := m.Stats()
	if st.Served != workers*iters+1 {
		t.Fatalf("served = %d, want %d", st.Served, workers*iters+1)
	}
	if st.Latency.Count == 0 || st.Latency.P99 < st.Latency.P50 {
		t.Fatalf("latency summary inconsistent: %+v", st.Latency)
	}
}

// TestPredictAllocs pins the serving path's steady-state allocations: a
// sequential one-row Model.Predict allocates at most twice per call for
// every family perfbench serves, unsharded, and for dense and pixelfly
// on two modelled IPUs, at the paper's width. Compiling a plan or
// pricing a bucket costs thousands of allocations, and running the same
// requests through Sequential.Infer 6 to 26.
func TestPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	for _, c := range []struct {
		method nn.Method
		shards int
	}{
		{nn.Butterfly, 1}, {nn.Fastfood, 1}, {nn.Circulant, 1}, {nn.Baseline, 1}, {nn.Pixelfly, 1},
		{nn.Baseline, 2}, {nn.Pixelfly, 2},
	} {
		t.Run(fmt.Sprintf("%v/s%d", c.method, c.shards), func(t *testing.T) {
			reg := NewRegistry(Options{NumIPUs: c.shards, Shards: c.shards})
			t.Cleanup(reg.Close)
			m, err := reg.Register(ModelSpec{Name: "m", Method: c.method, N: 1024, Classes: 10, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if m.Shards() != c.shards {
				t.Fatalf("model runs on %d IPUs, want %d", m.Shards(), c.shards)
			}
			features := benchFeatures(1024)
			predict := func() {
				if _, err := m.Predict(context.Background(), features); err != nil {
					t.Fatal(err)
				}
			}
			predict() // compiles the one-row plan and prices its bucket
			if avg := testing.AllocsPerRun(200, predict); avg > 2 {
				t.Fatalf("%.2f allocations per one-row Predict, want at most 2", avg)
			}
		})
	}
}
