package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// benchFeatures builds one deterministic feature vector of width n.
func benchFeatures(n int) []float32 {
	v := tensor.New(1, n)
	v.FillRandom(rand.New(rand.NewSource(9)), 1)
	return v.Data
}

// BenchmarkPredictSteadyState measures the full serving path — registry,
// micro-batcher, compiled-plan execution — at steady state, allocs/op
// included. This is the acceptance benchmark of the allocation-free
// execution-plan refactor; compare against BenchmarkPredictLegacyInfer,
// which drives the same batcher over the pre-refactor per-layer
// allocating inference path.
func BenchmarkPredictSteadyState(b *testing.B) {
	reg := NewRegistry(Options{Batcher: BatcherConfig{
		MaxBatch: 32,
	}})
	defer reg.Close()
	m, err := reg.Register(ModelSpec{Name: "bf", Method: nn.Butterfly, N: 1024, Classes: 10, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	features := benchFeatures(1024)
	ctx := context.Background()
	if _, err := m.Predict(ctx, features); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := m.Predict(ctx, features); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPredictLegacyInfer is the pre-refactor inference path kept as a
// living comparator: the same micro-batcher executing batches through
// Sequential.Infer, which allocates fresh matrices at every butterfly
// stage of every batch.
func BenchmarkPredictLegacyInfer(b *testing.B) {
	net := nn.BuildSHL(nn.Butterfly, 1024, 10, rand.New(rand.NewSource(42)))
	bt := NewBatcher(1024, BatcherConfig{
		MaxBatch: 32,
	}, net.Infer)
	defer bt.Stop()
	features := benchFeatures(1024)
	ctx := context.Background()
	if _, _, err := bt.Do(ctx, features); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := bt.Do(ctx, features); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPredictHTTP sends one perfbench-shaped request, a 1024-feature
// /predict body for a butterfly model, through Server.ServeHTTP at a
// time: body read, decode, batcher, plan execution and JSON response.
func BenchmarkPredictHTTP(b *testing.B) {
	reg := NewRegistry(Options{Batcher: BatcherConfig{MaxBatch: 32}})
	defer reg.Close()
	if _, err := reg.Register(ModelSpec{Name: "butterfly", Method: nn.Butterfly, N: 1024, Classes: 10, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(reg)
	body, err := json.Marshal(PredictRequest{Model: "butterfly", Features: benchFeatures(1024)})
	if err != nil {
		b.Fatal(err)
	}
	post := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
