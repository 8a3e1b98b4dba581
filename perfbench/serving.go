package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/ipu"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The paper's single-hidden-layer network, as every workload serves or
// trains it.
const (
	width      = 1024
	classes    = 10
	weightSeed = 42
	maxBatch   = 64 // cmd/ipuserve's default MaxBatch
	vectors    = 64 // distinct seeded feature vectors per run
)

type modelDef struct {
	name   string
	method nn.Method
}

// servingWorkload is one traffic mix sent through the real HTTP handler.
type servingWorkload struct {
	models []modelDef
	ipus   int     // modelled IPUs per model (Options.NumIPUs and Shards)
	rate   float64 // fixed Poisson rate, about 1/8 of capacity
}

var servingWorkloads = map[string]servingWorkload{
	// Kernels cost 24–66 µs a row against ~290 µs of JSON decode, so the
	// HTTP handler, batcher and instrumentation dominate.
	"structured_http": {
		models: []modelDef{{"butterfly", nn.Butterfly}, {"fastfood", nn.Fastfood}, {"circulant", nn.Circulant}},
		ipus:   1,
		rate:   450,
	},
	// Dense and pixelfly rows cost 520–810 µs across two modelled IPUs, so
	// the tiled matmul, BSR and low-rank kernels and both shard executors
	// (the planner picks the pipeline wavefront or tensor-parallel per
	// batch bucket) dominate.
	"sharded_http": {
		models: []modelDef{{"dense", nn.Baseline}, {"pixelfly", nn.Pixelfly}},
		ipus:   2,
		rate:   150,
	},
}

func (w servingWorkload) names() []string {
	out := make([]string, len(w.models))
	for i, m := range w.models {
		out[i] = m.name
	}
	return out
}

// options are cmd/ipuserve's serving defaults; traced runs turn the
// program's own trace and timeline sampling up to every request and batch.
func (w servingWorkload) options(traceKeep int) serve.Options {
	o := serve.Options{
		Batcher: serve.BatcherConfig{MaxBatch: maxBatch, MaxDelay: 2 * time.Millisecond},
		NumIPUs: w.ipus,
		Shards:  w.ipus,
	}
	if traceKeep > 0 {
		o.TraceSampleEvery, o.TraceKeep, o.TimelineSampleEvery = 1, traceKeep, 1
	}
	return o
}

// setup creates the registry, registers every model and prices every
// power-of-two batch bucket up to MaxBatch, which keeps IPU pricing and
// plan compiles off the request path. It returns the registry and the
// set-up time.
func (w servingWorkload) setup(opts serve.Options, sp *spans) (*serve.Registry, time.Duration, error) {
	root := sp.begin("setup", -1)
	t0 := time.Now()
	reg := serve.NewRegistry(opts)
	for _, md := range w.models {
		id := sp.begin("serve.Registry.Register", root)
		m, err := reg.Register(serve.ModelSpec{Name: md.name, Method: md.method, N: width, Classes: classes, Seed: weightSeed})
		sp.end(id)
		if err != nil {
			reg.Close()
			return nil, 0, err
		}
		for b := 1; b <= maxBatch; b *= 2 {
			id := sp.begin("serve.Model.ModelledCost", root)
			_, err := m.ModelledCost(b)
			sp.end(id)
			if err != nil {
				reg.Close()
				return nil, 0, fmt.Errorf("pricing %s at batch %d: %w", md.name, b, err)
			}
		}
	}
	d := time.Since(t0)
	sp.end(root)
	return reg, d, nil
}

// inputs are a run's seeded requests and the scores they must produce.
type inputs struct {
	bodies [][][]byte    // [model][vector] request body
	ref    [][][]float32 // [model][vector] nn.Sequential.Infer scores
}

// makeInputs draws the run's feature vectors from the seed, encodes them
// as /predict bodies, and computes each model's reference scores with
// nn.Sequential.Infer on weights built the way the registry builds them.
func (w servingWorkload) makeInputs(seed int64) (inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(vectors, width)
	for i := range x.Data {
		x.Data[i] = float32(rng.Float64()*2 - 1)
	}
	in := inputs{bodies: make([][][]byte, len(w.models)), ref: make([][][]float32, len(w.models))}
	for m, md := range w.models {
		net := nn.BuildSHL(md.method, width, classes, rand.New(rand.NewSource(weightSeed)))
		y := net.Infer(x)
		in.bodies[m] = make([][]byte, vectors)
		in.ref[m] = make([][]float32, vectors)
		for v := 0; v < vectors; v++ {
			b, err := json.Marshal(serve.PredictRequest{Model: md.name, Features: x.Row(v)})
			if err != nil {
				return inputs{}, err
			}
			in.bodies[m][v] = b
			in.ref[m][v] = append([]float32(nil), y.Row(v)...)
		}
	}
	return in, nil
}

// session is one registry behind the HTTP handler plus the run's inputs,
// with running totals of attempted and failed requests.
type session struct {
	w         servingWorkload
	reg       *serve.Registry
	srv       http.Handler
	in        inputs
	seed      int64
	phases    int
	attempted int
	failed    int
}

// phase sends lead+n Poisson arrivals at rate and checks every response.
// The first lead requests bring the server to the rate and are left out
// of the returned summary, results and decoded bodies.
func (s *session) phase(name string, rate float64, lead, n int, onServe func(sent, end time.Time)) (phaseStats, []result, []*predictBody) {
	s.phases++
	sched := poissonSchedule(s.seed*1000+int64(s.phases), rate, lead+n, len(s.w.models), vectors)
	res := runPhase(s.srv, sched, s.in.bodies, onServe)
	bodies, failed := verify(sched, res, s.w.names(), s.in.ref)
	s.attempted += len(res)
	s.failed += failed
	leadFailed := 0
	for _, b := range bodies[:lead] {
		if b == nil {
			leadFailed++
		}
	}
	st := summarize(name, rate, sched[lead:], res[lead:], bodies[lead:], failed-leadFailed)
	fmt.Println(st)
	return st, res[lead:], bodies[lead:]
}

// fillPools sends bursts of concurrent requests sized to every batch
// bucket, so each bucket's pooled plans are compiled before a phase is
// timed. The pools are emptied by garbage collection, so a bucket a phase
// has not used for two collections compiles again on its next batch.
func (s *session) fillPools() {
	for b := 2; b <= maxBatch; b *= 2 {
		sched := make([]arrival, b*len(s.w.models))
		for i := range sched {
			sched[i] = arrival{model: i % len(s.w.models), vec: i % vectors}
		}
		res := runPhase(s.srv, sched, s.in.bodies, nil)
		_, failed := verify(sched, res, s.w.names(), s.in.ref)
		s.attempted += len(res)
		s.failed += failed
	}
}

// warm fills the plan pools, then settles at the fixed rate.
func (s *session) warm() {
	s.fillPools()
	s.phase("warmup", s.w.rate, 0, int(s.w.rate/2), nil)
}

// fixedCount is how many requests the fixed-rate phase sends: a share of
// the run's seconds at the fixed rate, and never fewer than p99 needs.
func (w servingWorkload) fixedCount(seconds float64) int {
	return max(1200, int(0.45*seconds*w.rate))
}

// probeCount sizes one capacity probe: a fixed share of the run's seconds
// at the probe rate, and never fewer than p99 needs.
func probeCount(rate, seconds float64) int {
	return max(1000, int(0.04*seconds*rate))
}

// open sets a registry up and puts it behind the HTTP handler with the
// run's inputs.
func (w servingWorkload) open(seed int64, opts serve.Options, sp *spans) (*session, error) {
	reg, _, err := w.setup(opts, sp)
	if err != nil {
		return nil, err
	}
	in, err := w.makeInputs(seed)
	if err != nil {
		reg.Close()
		return nil, err
	}
	return &session{w: w, reg: reg, srv: serve.NewServer(reg), in: in, seed: seed}, nil
}

// setupRepeats is how many times a run sets up; setup_s is their median,
// which neither the process's first set-up (slower: the heap grows from
// the OS) nor a few set-ups caught in the host's speed dips of a few
// hundred milliseconds can move.
const setupRepeats = 7

// runServingE2E is the end-to-end run of a serving workload.
func runServingE2E(w servingWorkload, seed int64, seconds float64) (report, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		reg, d, err := w.setup(w.options(0), nil)
		if err != nil {
			return report{}, err
		}
		reg.Close()
		setups = append(setups, d.Seconds())
	}
	// The registry that serves the load is set up once more, untimed, with
	// collection paused, so that every plan set-up pooled is still pooled
	// when the live heap is read.
	dropPools()
	gc := debug.SetGCPercent(-1)
	reg, _, err := w.setup(w.options(0), nil)
	debug.SetGCPercent(gc)
	if err != nil {
		return report{}, err
	}
	heap := liveHeapMiB()
	in, err := w.makeInputs(seed)
	if err != nil {
		reg.Close()
		return report{}, err
	}
	s := &session{w: w, reg: reg, srv: serve.NewServer(reg), in: in, seed: seed}
	defer reg.Close()

	calib0 := calibGflops()
	s.warm()
	fixed, _, _ := s.phase("fixed", w.rate, 0, w.fixedCount(seconds), nil)
	// The ramp starts near 8× the fixed rate, at a seed-dependent point
	// within ±10%, so the probed rates, and the reported capacity, are not
	// pinned to one grid for every run. At most 2×(5+2) = 14 probes run,
	// which bounds the run's length.
	plan := searchPlan{start: 8 * w.rate, step: 1.2, ramp: 5, refine: 2}
	plan.start *= 0.9 + 0.2*rand.New(rand.NewSource(seed)).Float64()
	// Going from the light fixed rate to the first probe rate recompiles
	// plans and grows the heap; settle there unmeasured so the first probe
	// is not failed by the transition alone.
	s.phase("settle", plan.start, 0, int(1.5*plan.start), nil)
	capacity := searchCapacity(plan, func(rate float64) bool {
		s.fillPools()
		st, _, _ := s.phase("probe", rate, int(0.5*rate), probeCount(rate, seconds), nil)
		ok := probePasses(st)
		fmt.Printf("  probe %.1f/s: pass=%v backlog=%d\n", rate, ok, st.backlog)
		return ok
	})
	calib1 := calibGflops()
	fmt.Printf("setups %v s; calib %.3f → %.3f GFLOP/s; generator late p99 %.3f ms max %.3f ms\n",
		setups, calib0, calib1, fixed.lateP99, fixed.lateMax)
	// p99 and capacity are printed but not gated: see README.md, "Reading
	// the numbers".
	fmt.Printf("  %-40s %14.6g %s (not gated, %d requests)\n", "p99_ms", fixed.p99, "ms", fixed.attempted)
	fmt.Printf("  %-40s %14.6g %s (not gated)\n", "capacity_rps", capacity, "1/s")
	return report{
		attempted: s.attempted,
		failed:    s.failed,
		metrics: endToEndMetrics(map[string]float64{
			"setup_s":       median(setups),
			"p50_ms":        fixed.p50,
			"heap_live_mb":  heap,
			"samples_per_s": fixed.goodput,
		}),
	}, nil
}

// runServingTraced is the per-layer run of a serving workload: an
// untraced fixed-rate phase for the process, kernel, cache and batcher
// counters, then the same phase against a registry that traces every
// request and samples every batch, with the benchmark's own spans on.
func runServingTraced(w servingWorkload, seed int64, seconds float64, outDir, file string) (report, error) {
	n := w.fixedCount(seconds)

	// Untraced pass.
	s, err := w.open(seed, w.options(0), nil)
	if err != nil {
		return report{}, err
	}
	calib0 := calibGflops()
	s.warm()
	ks0, cache0, proc0 := s.reg.KernelStats().Snapshot(), s.reg.CacheStats(), sampleProc()
	flush0 := flushCounts(s.reg, w)
	fixed, _, bodies := s.phase("fixed", w.rate, 0, n, nil)
	proc1, cache1, ks1 := sampleProc(), s.reg.CacheStats(), s.reg.KernelStats().Snapshot()
	flush1 := flushCounts(s.reg, w)
	attempted, failed := s.attempted, s.failed
	s.reg.Close()

	m := newLayerMetrics()
	pd := diffProc(proc0, proc1, fixed.attempted)
	m.set("runtime.cpu_ms_per_req", pd.cpuMsPer)
	m.set("runtime.alloc_kb_per_req", pd.allocKBPer)
	m.set("runtime.gc_per_s", pd.gcPerS)
	m.set("serve.cache.load_misses", float64(cache1.Misses-cache0.Misses))
	if lookups := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses); lookups > 0 {
		m.set("serve.cache.hit_rate", float64(cache1.Hits-cache0.Hits)/float64(lookups))
	}
	if flushes := (flush1[0] - flush0[0]) + (flush1[1] - flush0[1]); flushes > 0 {
		m.set("serve.batcher.timeout_flush_share", float64(flush1[1]-flush0[1])/float64(flushes))
	}
	m.set("serve.batcher.avg_batch", avgBatch(bodies))
	kernelMetrics(m, ks0, ks1)
	m.set("loadgen.late_ms_p99", fixed.lateP99)
	m.set("loadgen.late_ms_max", fixed.lateMax)

	// Traced pass.
	sp := newSpans()
	s, err = w.open(seed, w.options(n), sp)
	if err != nil {
		return report{}, err
	}
	defer s.reg.Close()
	m.set("serve.registry.register_s", sp.total("serve.Registry.Register"))
	m.set("serve.cache.price_s", sp.total("serve.Model.ModelledCost"))
	if err := w.compileSpans(sp); err != nil {
		return report{}, err
	}
	m.set("ipu.compile_s", sp.total("ipu.Compile+Simulate"))
	m.set("nn.plan.compile_s", sp.total("nn.Sequential.CompilePlan"))
	s.warm()
	root := sp.begin("phase:fixed", -1)
	traced, res, tbodies := s.phase("fixed-traced", w.rate, 0, n, func(sent, end time.Time) {
		sp.add("serve.Server.ServeHTTP", root, sent, end)
	})
	sp.end(root)
	m.set("loadgen.calib_gflops_start", calib0)
	m.set("loadgen.calib_gflops_end", calibGflops())
	attempted += s.attempted
	failed += s.failed

	var serveS, selfS float64
	for i, r := range res {
		if tbodies[i] != nil {
			serveS += r.serve.Seconds()
			selfS += r.serve.Seconds() - tbodies[i].LatencySeconds
		}
	}
	if serveS > 0 {
		m.set("serve.http.self_share", selfS/serveS)
	}
	traceMetrics(m, s.reg.Tracer().Snapshot())
	for _, md := range w.models {
		if sum, ok := mustModel(s.reg, md.name).TimelineSummary(); ok {
			if w.ipus > 1 {
				p := "shard." + md.name + "."
				m.set(p+"compute_share", sum.ComputeShare)
				m.set(p+"exchange_share", sum.ExchangeShare)
				m.set(p+"barrier_share", sum.BarrierShare)
				m.set(p+"bubble_fraction", sum.BubbleFraction)
				m.set(p+"micro_batches", float64(sum.MicroBatches))
			}
			fmt.Printf("timeline %-9s strategy=%s shards=%d micro=%d compute=%.3f exchange=%.3f barrier=%.3f bubble=%.3f\n",
				md.name, sum.Strategy, sum.Shards, sum.MicroBatches, sum.ComputeShare, sum.ExchangeShare, sum.BarrierShare, sum.BubbleFraction)
		}
	}
	m.set("obs.tracing_overhead_pct", 100*(traced.p50-fixed.p50)/fixed.p50)
	if err := sp.write(outDir, file); err != nil {
		return report{}, err
	}
	return report{attempted: attempted, failed: failed, metrics: m.list()}, nil
}

func mustModel(reg *serve.Registry, name string) *serve.Model {
	m, ok := reg.Get(name)
	if !ok {
		panic("perfbench: model " + name + " not registered")
	}
	return m
}

// compileSpans times the program's two compilers on the workload's shapes:
// the IPU cost model (ipu.Compile + ipu.Simulate) and the host plan
// compiler (CompilePlan), at every batch bucket.
func (w servingWorkload) compileSpans(sp *spans) error {
	cfg := ipu.GC200()
	root := sp.begin("compilers", -1)
	defer sp.end(root)
	for _, md := range w.models {
		net := nn.BuildSHL(md.method, width, classes, rand.New(rand.NewSource(weightSeed)))
		for b := 1; b <= maxBatch; b *= 2 {
			wl, err := ipuWorkload(cfg, md.method, b)
			if err != nil {
				return err
			}
			id := sp.begin("ipu.Compile+Simulate", root)
			c, err := ipu.Compile(wl.Graph)
			if err == nil {
				ipu.Simulate(c)
			}
			sp.end(id)
			if err != nil {
				return fmt.Errorf("ipu.Compile %s batch %d: %w", md.name, b, err)
			}
			id = sp.begin("nn.Sequential.CompilePlan", root)
			_, err = net.CompilePlan(b)
			sp.end(id)
			if err != nil {
				return fmt.Errorf("CompilePlan %s batch %d: %w", md.name, b, err)
			}
		}
	}
	return nil
}

// ipuWorkload is the IPU workload that prices the method's structured layer.
func ipuWorkload(cfg ipu.Config, method nn.Method, batch int) (*ipu.Workload, error) {
	switch method {
	case nn.Baseline:
		return ipu.BuildLinear(cfg, width, batch), nil
	case nn.Butterfly:
		return ipu.BuildButterflyMM(cfg, width, batch), nil
	case nn.Fastfood:
		return ipu.BuildFastfood(cfg, width, batch), nil
	case nn.Circulant:
		return ipu.BuildCirculant(cfg, width, batch), nil
	case nn.Pixelfly:
		return ipu.BuildPixelflyMM(cfg, nn.PaperPixelflyConfig(width), batch), nil
	}
	return nil, fmt.Errorf("no IPU workload for %v", method)
}

// flushCounts reads the batcher flush counters, summed over the
// workload's models: [full, timeout].
func flushCounts(reg *serve.Registry, w servingWorkload) [2]int64 {
	var out [2]int64
	for _, md := range w.models {
		lm := obs.L{Key: "model", Value: md.name}
		out[0] += reg.Obs().Counter("ipuserve_batcher_flush_total", lm, obs.L{Key: "reason", Value: "full"}).Value()
		out[1] += reg.Obs().Counter("ipuserve_batcher_flush_total", lm, obs.L{Key: "reason", Value: "timeout"}).Value()
	}
	return out
}

// avgBatch is the mean executed batch size: each request reports the size
// of its batch, so a batch of b rows contributes b reports of b.
func avgBatch(bodies []*predictBody) float64 {
	var reqs, batches float64
	for _, b := range bodies {
		if b != nil {
			reqs++
			batches += 1 / float64(b.BatchSize)
		}
	}
	if batches == 0 {
		return 0
	}
	return reqs / batches
}

// kernelFamilies are the kernel families the per-layer run reports.
var kernelFamilies = []string{"matmul", "bsr", "lowrank", "butterfly", "fwht", "fft"}

func kernelMetrics(m *layerMetrics, before, after []obs.KernelSnapshot) {
	find := func(ss []obs.KernelSnapshot, k string) obs.KernelSnapshot {
		for _, s := range ss {
			if s.Kernel == k {
				return s
			}
		}
		return obs.KernelSnapshot{}
	}
	for _, k := range kernelFamilies {
		a, b := find(before, k), find(after, k)
		calls, flops, nanos := b.Calls-a.Calls, b.Flops-a.Flops, b.Nanos-a.Nanos
		if calls > 0 && nanos > 0 {
			m.set("kernel."+k+".gflops", float64(flops)/float64(nanos))
			m.set("kernel."+k+".us_per_call", float64(nanos)/1e3/float64(calls))
		}
	}
}

// traceMetrics reads the program's own request traces: HTTP decode and
// write, batcher queue wait, and the plan's execute span per batch row.
func traceMetrics(m *layerMetrics, traces []obs.TraceRecord) {
	var decode, write, queue, exec []float64
	var execPerRow, rows float64
	for _, tr := range traces {
		for _, s := range tr.Spans {
			d := float64(s.DurNanos) / 1e3 // µs
			switch s.Name {
			case "http_decode":
				decode = append(decode, d)
			case "http_write":
				write = append(write, d)
			case "queue_wait":
				queue = append(queue, d/1e3)
			case "execute":
				exec = append(exec, d)
				if tr.Batch > 0 {
					execPerRow += d / float64(tr.Batch)
					rows++
				}
			}
		}
	}
	m.set("serve.http.decode_us_p50", median(decode))
	m.set("serve.http.write_us_p50", median(write))
	m.set("serve.batcher.queue_wait_ms_p50", median(queue))
	q99, _ := percentile(queue, 99)
	m.set("serve.batcher.queue_wait_ms_p99", q99)
	m.set("nn.plan.execute_us_p50", median(exec))
	if rows > 0 {
		m.set("nn.plan.execute_us_per_row", execPerRow/rows)
	}
	fmt.Printf("traces %d: decode %d write %d queue %d execute %d spans\n", len(traces), len(decode), len(write), len(queue), len(exec))
}
