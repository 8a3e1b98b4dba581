package serve

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// LoadConfig tunes the built-in load generator.
type LoadConfig struct {
	// RPS is the offered request rate (open loop: requests are issued on
	// schedule regardless of completions, like real traffic). Default 200.
	RPS int
	// Duration is how long to offer load. Default 5s.
	Duration time.Duration
	// Seed drives the synthetic feature vectors. Default 1.
	Seed int64
	// Burst issues that many requests per tick (at RPS/Burst ticks per
	// second, so the offered rate is unchanged). A burst's requests reach
	// the micro-batcher together, so they coalesce into multi-row batches
	// even when uniform arrivals at the same rate would find a worker
	// idle for each one — the arrival shape that exercises pipelined
	// multi-batch execution. Default 1 (uniform).
	Burst int
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.RPS <= 0 {
		c.RPS = 200
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Burst <= 0 {
		c.Burst = 1
	}
	return c
}

// LoadReport summarizes one load-generation run against one model.
type LoadReport struct {
	Model    string
	Offered  int // requests issued
	Done     int // requests answered successfully
	Errors   int
	Elapsed  time.Duration
	Latency  stats.Summary // seconds, over successful requests
	Batching BatcherStats  // delta over the run
	Cache    CacheStats    // delta over the run

	// AllErrors marks a run where every offered request failed: the
	// latency summary and per-op allocation fields are zero because there
	// is nothing to summarize, not because the run was free. Consumers
	// must not read the zero percentiles as "infinitely fast".
	AllErrors bool

	// AllocsPerOp and BytesPerOp are the process-wide heap allocation
	// deltas of the run divided by completed requests — the serving
	// stack's allocation trajectory (includes the load generator's own
	// bookkeeping, so treat it as an upper bound on the serving path).
	AllocsPerOp float64
	BytesPerOp  float64
}

// Throughput returns completed requests per second.
func (r LoadReport) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Done) / r.Elapsed.Seconds()
}

// RunLoad offers cfg.RPS requests/s of synthetic traffic to the model for
// cfg.Duration and reports throughput, the latency distribution, the
// batching behaviour and the program-cache delta of the run.
func RunLoad(ctx context.Context, reg *Registry, model string, cfg LoadConfig) (LoadReport, error) {
	cfg = cfg.withDefaults()
	m, ok := reg.Get(model)
	if !ok {
		return LoadReport{}, errUnknownModel(model)
	}

	// A small pool of deterministic feature vectors, cycled per request.
	const poolSize = 64
	rng := newRNG(cfg.Seed)
	pool := make([][]float32, poolSize)
	for i := range pool {
		v := tensor.New(1, m.spec.N)
		v.FillRandom(rng, 1)
		pool[i] = v.Data
	}

	batchBefore := m.batcher.Stats()
	cacheBefore := reg.CacheStats()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	var (
		mu        sync.Mutex
		latencies []float64
		errs      int
		maxBatch  int
	)
	var wg sync.WaitGroup
	interval := time.Second * time.Duration(cfg.Burst) / time.Duration(cfg.RPS)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.NewTimer(cfg.Duration)
	defer deadline.Stop()

	start := time.Now()
	offered := 0
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-deadline.C:
			break loop
		case <-ticker.C:
			for b := 0; b < cfg.Burst; b++ {
				features := pool[offered%poolSize]
				offered++
				wg.Add(1)
				go func() {
					defer wg.Done()
					t0 := time.Now()
					pred, err := m.Predict(ctx, features)
					lat := time.Since(t0).Seconds()
					mu.Lock()
					if err != nil {
						errs++
					} else {
						latencies = append(latencies, lat)
						if pred.BatchSize > maxBatch {
							maxBatch = pred.BatchSize
						}
					}
					mu.Unlock()
				}()
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	batchAfter := m.batcher.Stats()
	cacheAfter := reg.CacheStats()
	rep := LoadReport{
		Model:   model,
		Offered: offered,
		Done:    len(latencies),
		Errors:  errs,
		Elapsed: elapsed,
		Latency: stats.Summarize(latencies),
		Batching: BatcherStats{
			Requests: batchAfter.Requests - batchBefore.Requests,
			Batches:  batchAfter.Batches - batchBefore.Batches,
			MaxBatch: int64(maxBatch), // largest batch observed by this run's requests
		},
		Cache: CacheStats{
			Hits:    cacheAfter.Hits - cacheBefore.Hits,
			Misses:  cacheAfter.Misses - cacheBefore.Misses,
			Entries: cacheAfter.Entries,
		},
	}
	if rep.Batching.Batches > 0 {
		rep.Batching.AvgBatch = float64(rep.Batching.Requests) / float64(rep.Batching.Batches)
	}
	if total := rep.Cache.Hits + rep.Cache.Misses; total > 0 {
		rep.Cache.HitRate = float64(rep.Cache.Hits) / float64(total)
	}
	if rep.Done > 0 {
		rep.AllocsPerOp = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(rep.Done)
		rep.BytesPerOp = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(rep.Done)
	}
	// A run where nothing succeeded must degrade to an explicit all-errors
	// record — zero percentiles with AllErrors set — instead of reporting
	// an empty latency distribution as a perfect one.
	if rep.Done == 0 && rep.Offered > 0 {
		rep.AllErrors = true
		rep.Latency = stats.Summary{}
	}
	return rep, nil
}

type errUnknownModel string

func (e errUnknownModel) Error() string { return "serve: unknown model " + string(e) }
