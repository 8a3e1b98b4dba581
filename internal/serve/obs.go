package serve

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/shard"
)

// Metric family names exported by the serving stack. Everything carries
// the ipuserve_ prefix; per-model series add a model label, per-step and
// per-IPU series add step/ipu labels on top.
const (
	metRequests       = "ipuserve_requests_total"
	metErrors         = "ipuserve_errors_total"
	metLatency        = "ipuserve_request_seconds"
	metBatchSize      = "ipuserve_batch_size"
	metQueueDepth     = "ipuserve_batcher_queue_depth"
	metFlush          = "ipuserve_batcher_flush_total"
	metCacheHits      = "ipuserve_cache_hits_total"
	metCacheMisses    = "ipuserve_cache_misses_total"
	metCacheEvict     = "ipuserve_cache_evictions_total"
	metCacheEntries   = "ipuserve_cache_entries"
	metCacheCompile   = "ipuserve_cache_compile_seconds"
	metPlanBuild      = "ipuserve_plan_build_seconds"
	metPlanStep       = "ipuserve_plan_step_seconds"
	metShardCompute   = "ipuserve_shard_compute_seconds"
	metFactorErr      = "ipuserve_model_factorization_error"
	metModelledReq    = "ipuserve_modelled_per_request_seconds"
	metModels         = "ipuserve_models"
	metUptime         = "ipuserve_uptime_seconds"
	metHTTPRequests   = "ipuserve_http_requests_total"
	metEncodeErrs     = "ipuserve_http_json_encode_errors_total"
	metKernelGflops   = "ipuserve_kernel_gflops"
	metKernelBytes    = "ipuserve_kernel_bytes_per_sec"
	metKernelVariant  = "ipuserve_kernel_variant"
	metDrift          = "ipuserve_cost_model_drift_ratio"
	metPhaseSeconds   = "ipuserve_phase_seconds"
	metBubbleFraction = "ipuserve_pipeline_bubble_fraction"
)

// registerHelp attaches the HELP strings once per registry so every
// scrape documents the families.
func registerHelp(reg *obs.Registry) {
	reg.Help(metRequests, "Requests served successfully, per model.")
	reg.Help(metErrors, "Requests that failed (bad input, stopped model, inference error), per model.")
	reg.Help(metLatency, "Host-side request latency from enqueue to response, per model.")
	reg.Help(metBatchSize, "Requests coalesced per micro-batch, per model.")
	reg.Help(metQueueDepth, "Requests waiting for a batcher worker, per model.")
	reg.Help(metFlush, "Micro-batches by reason (full = MaxBatch reached, drained = the worker emptied the queue first).")
	reg.Help(metCacheHits, "Modelled-cost lookups whose batch bucket was already priced.")
	reg.Help(metCacheMisses, "Modelled-cost lookups that paid or waited on pricing their batch bucket.")
	reg.Help(metCacheEvict, "Priced programs dropped by model replacement or removal.")
	reg.Help(metCacheEntries, "Priced programs of the registered models.")
	reg.Help(metCacheCompile, "Wall time of pricing a program on the modelled IPU per cache miss: workload build, compile and simulate; the host plan's compile is not included.")
	reg.Help(metPlanBuild, "Wall time of building one host plan on the request path when a program has no idle plan, the packing of the model's weights included when it is the model version's first.")
	reg.Help(metPlanStep, "Measured wall time of one compiled-plan step, per model and step.")
	reg.Help(metShardCompute, "Measured per-IPU kernel time of one sharded batch, per model and modelled IPU.")
	reg.Help(metFactorErr, "Max per-layer relative Frobenius error of the factorization the model serves (0 = exact weights).")
	reg.Help(metModelledReq, "Modelled per-request seconds of the most recent batch bucket (compare against "+metLatency+").")
	reg.Help(metModels, "Models currently registered.")
	reg.Help(metUptime, "Seconds since the HTTP server started.")
	reg.Help(metHTTPRequests, "HTTP requests by path.")
	reg.Help(metEncodeErrs, "JSON responses that failed to encode (response abandoned mid-write).")
	reg.Help(metKernelGflops, "Measured GFLOP/s per Into-kernel family, cumulative over all executed plan steps.")
	reg.Help(metKernelBytes, "Measured activation-arena bytes/s per Into-kernel family, cumulative over all executed plan steps.")
	reg.Help(metKernelVariant, "Active micro-kernel variant per model and Into-kernel family (value is always 1; the variant label carries the information).")
	reg.Help(metDrift, "Measured per-row step seconds divided by the modelled IPU cost, per model and step (host/device scale; watch for change, not absolute level).")
	reg.Help(metPhaseSeconds, "Accumulated executor time per modelled IPU and BSP phase (compute/exchange/barrier_wait/bubble), extrapolated from the flight recorder's 1-in-N sampled batches by the sampling period.")
	reg.Help(metBubbleFraction, "Share of sampled per-IPU executor time spent in pipeline fill/drain bubbles (~0 for tensor-parallel and single-IPU models).")
}

// modelMetrics is the per-model instrument set, created once at install so
// the request hot path records by pointer without name lookups.
type modelMetrics struct {
	errors        *obs.Counter
	latency       *obs.Histogram
	modelled      *obs.Gauge
	factorization *obs.Gauge

	// Sharded-execution instruments, indexed by modelled IPU; empty for
	// single-IPU models.
	shardCompute []*obs.Histogram
}

func newModelMetrics(reg *obs.Registry, name string, shards int) *modelMetrics {
	lm := obs.L{Key: "model", Value: name}
	mm := &modelMetrics{
		errors:        reg.Counter(metErrors, lm),
		latency:       reg.Histogram(metLatency, obs.LatencyBuckets(), lm),
		modelled:      reg.Gauge(metModelledReq, lm),
		factorization: reg.Gauge(metFactorErr, lm),
	}
	if shards > 1 {
		mm.shardCompute = make([]*obs.Histogram, shards)
		for i := range mm.shardCompute {
			mm.shardCompute[i] = reg.Histogram(metShardCompute, obs.LatencyBuckets(),
				lm, obs.L{Key: "ipu", Value: strconv.Itoa(i)})
		}
	}
	return mm
}

// newBatcherMetrics wires the flush counters and batch-size histogram of
// one model's batcher. Built before the batcher so its goroutines see a
// fixed pointer.
func newBatcherMetrics(reg *obs.Registry, name string) *batcherMetrics {
	lm := obs.L{Key: "model", Value: name}
	return &batcherMetrics{
		flushFull:    reg.Counter(metFlush, lm, obs.L{Key: "reason", Value: "full"}),
		flushDrained: reg.Counter(metFlush, lm, obs.L{Key: "reason", Value: "drained"}),
		batchSize:    reg.Histogram(metBatchSize, obs.SizeBuckets(12), lm),
	}
}

// stepObs is the per-plan-step instrument set, built lazily on the first
// executed batch (step names come from the compiled plan) and shared by
// every batch after: one latency histogram per step plus the precomputed
// "step:<name>" span labels, so per-step recording allocates nothing.
// Step names are stable per model - fusion and sharding are decided at
// install time and do not depend on the batch bucket.
type stepObs struct {
	spanNames []string
	hists     []*obs.Histogram

	// variants[i] names the kernel variant step i runs ("" for steps
	// with no kernel family); kern[i] is the step's Into-kernel family
	// and flopsPerRow/bytesPerRow its per-sample work. Together they
	// feed the per-kernel accounting, the kernel-variant gauge and the
	// drift report.
	variants    []string
	kern        []obs.Kernel
	flopsPerRow []int64
	bytesPerRow []int64

	// Cost-model drift accounting: modelled[i] is the modelled per-row
	// seconds of step i under the registry's topology (0 when the step has
	// no cost model), measured[i] the running measured nanos and rows. The
	// drift ratio — measured per-row seconds over modelled — is derived at
	// scrape/report time, so the batch hot path only pays two atomic adds
	// per step. The ratio's absolute level reflects host-Go-loops vs
	// modelled-IPU scale and is expected far from 1; what the detector
	// watches is the ratio *changing* between runs.
	modelled []float64
	measured []driftAcc
}

// driftAcc accumulates one step's measured execution: total nanoseconds
// and total rows, from which the per-row measured cost is derived.
type driftAcc struct {
	nanos atomic.Int64
	rows  atomic.Int64
}

// modelledPerRow prices each step of the executor at one row under the
// topology: the unsharded plan through the cost model's per-class compute
// rates, the sharded plan through its own modelled micro-step seconds
// (compute split + exchange) scaled down from MaxBatch.
func modelledPerRow(se steppedExecutor, topo shard.Topology) []float64 {
	switch ex := se.(type) {
	case *nn.Plan:
		return shard.PlanStepSeconds(ex.Lowering, 1, topo)
	case *shard.ShardedPlan:
		ms := ex.ModelledStepSeconds()
		out := make([]float64, len(ms))
		inv := 1 / float64(ex.MaxBatch())
		for i, v := range ms {
			out[i] = v * inv
		}
		return out
	default:
		return nil
	}
}

// driftRatio is the scrape-time drift gauge value: measured per-row
// seconds over modelled, 0 until the step has executed at least once.
func driftRatio(acc *driftAcc, modelled float64) float64 {
	rows := acc.rows.Load()
	if rows == 0 || modelled <= 0 {
		return 0
	}
	return float64(acc.nanos.Load()) / float64(rows) / 1e9 / modelled
}

// steppedExecutor is the introspection surface both executor kinds
// (nn.Plan, shard.ShardedPlan) share: the lowered steps with their kernel
// families, variants and per-row work, and the frame each Execute
// measures into.
type steppedExecutor interface {
	Executor
	Steps() []string
	StepKernel(i int) obs.Kernel
	StepVariant(i int) string
	StepFlopsPerRow(i int) int64
	StepArenaBytesPerRow(i int) int64
	Frame() *timeline.Frame
}

// stepInstruments returns the model's per-step instruments, building them
// from the executor's step list on first use. Duplicate step names (two
// identical layers) share one histogram series.
func (m *Model) stepInstruments(se steppedExecutor) *stepObs {
	if so := m.stepObs.Load(); so != nil {
		return so
	}
	names := se.Steps()
	so := &stepObs{
		spanNames:   make([]string, len(names)),
		hists:       make([]*obs.Histogram, len(names)),
		variants:    make([]string, len(names)),
		kern:        make([]obs.Kernel, len(names)),
		flopsPerRow: make([]int64, len(names)),
		bytesPerRow: make([]int64, len(names)),
		modelled:    modelledPerRow(se, m.topo),
		measured:    make([]driftAcc, len(names)),
	}
	for i := range names {
		so.variants[i] = se.StepVariant(i)
		so.kern[i] = se.StepKernel(i)
		so.flopsPerRow[i] = se.StepFlopsPerRow(i)
		so.bytesPerRow[i] = se.StepArenaBytesPerRow(i)
	}
	if len(so.modelled) != len(names) {
		so.modelled = make([]float64, len(names))
	}
	for i, nm := range names {
		so.spanNames[i] = "step:" + nm
		so.hists[i] = m.obsReg.Histogram(metPlanStep, obs.LatencyBuckets(),
			obs.L{Key: "model", Value: m.spec.Name}, obs.L{Key: "step", Value: nm})
	}
	if !m.stepObs.CompareAndSwap(nil, so) {
		return m.stepObs.Load()
	}
	// Export the drift gauge for every step the cost model prices. The
	// gauges close over the winning stepObs' accumulators, so registration
	// happens only on the CAS winner.
	for i, nm := range names {
		if so.modelled[i] <= 0 {
			continue
		}
		acc, mod := &so.measured[i], so.modelled[i]
		m.obsReg.GaugeFunc(metDrift, func() float64 { return driftRatio(acc, mod) },
			obs.L{Key: "model", Value: m.spec.Name}, obs.L{Key: "step", Value: nm})
	}
	// Export the active variant per kernel family as a {model, kernel,
	// variant} gauge pinned to 1 — duplicate (family, variant) pairs share
	// one series via the registry's label dedup.
	for i := range names {
		if so.variants[i] == "" {
			continue
		}
		m.obsReg.Gauge(metKernelVariant,
			obs.L{Key: "model", Value: m.spec.Name},
			obs.L{Key: "kernel", Value: so.kern[i].String()},
			obs.L{Key: "variant", Value: so.variants[i]}).Set(1)
	}
	m.installTimelineMeta(se, so)
	return so
}

// installTimelineMeta describes the executor to the model's flight
// recorder: step names, kernel families, variants and the cost model's
// per-row modelled phase seconds. First executor wins (SetMeta is
// first-write; step layout is identical across a model's batch
// buckets), so the recorder's events stay index-only.
func (m *Model) installTimelineMeta(se steppedExecutor, so *stepObs) {
	if m.timeline == nil {
		return
	}
	meta := &timeline.Meta{
		Model:    m.spec.Name,
		Shards:   1,
		Steps:    append([]string(nil), se.Steps()...),
		Kernels:  make([]string, len(so.kern)),
		Variants: append([]string(nil), so.variants...),
	}
	for i, k := range so.kern {
		meta.Kernels[i] = k.String()
	}
	switch ex := se.(type) {
	case *nn.Plan:
		meta.ComputeSecPerRow = shard.PlanStepSeconds(ex.Lowering, 1, m.topo)
	case *shard.ShardedPlan:
		meta.Strategy = ex.Strategy().String()
		meta.Shards = ex.Shards()
		meta.MicroBatches = ex.MicroBatches()
		comp, exch := ex.ModelledPhaseSeconds()
		inv := 1 / float64(ex.MaxBatch())
		meta.ComputeSecPerRow = scaled(comp, inv)
		meta.ExchangeSecPerRow = scaled(exch, inv)
	}
	m.timeline.SetMeta(meta)
}

// scaled returns v element-wise multiplied by s, as a fresh slice.
func scaled(v []float64, s float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * s
	}
	return out
}

// observeExec derives every view of one executed batch from the frame
// its executor measured, in one place: the per-step times of the
// request traces (into info), the per-kernel accounting records, the
// cost-model drift accumulators, the step and shard-compute histograms,
// and — on the recorder's sampled batches — the timeline events. A step's
// time is its span under the barrier loop and the sum of its kernel
// cells otherwise; a shard's compute is the sum of its cells. Runs on
// the batcher worker, once per batch, before the plan returns to its
// program; allocation-free after the first batch builds the instruments.
func (m *Model) observeExec(ex Executor, info *execInfo) {
	se, ok := ex.(steppedExecutor)
	if !ok {
		return
	}
	f := se.Frame()
	info.nsteps = min(f.Steps, maxTraceSteps)
	if m.obsReg == nil {
		for i := 0; i < info.nsteps; i++ {
			info.stepNanos[i] = f.StepNanos(i)
		}
		return
	}
	so := m.stepInstruments(se)
	rows := int64(f.Rows)
	for i := 0; i < f.Steps; i++ {
		ns := f.StepNanos(i)
		if i < info.nsteps {
			info.stepNanos[i] = ns
		}
		so.hists[i].Observe(float64(ns) / 1e9)
		so.measured[i].nanos.Add(ns)
		so.measured[i].rows.Add(rows)
		if m.kstats != nil {
			m.kstats.Record(so.kern[i], rows*so.flopsPerRow[i], rows*so.bytesPerRow[i], ns)
		}
	}
	if m.mets != nil {
		for k, h := range m.mets.shardCompute {
			h.Observe(float64(f.ComputeNanos(k)) / 1e9)
		}
	}
	m.timeline.Record(f)
}

// StepCostDrift is one row of the cost-model drift report: one plan
// step's modelled per-row cost next to its measured per-row wall-clock
// and their ratio.
type StepCostDrift struct {
	Step string `json:"step"`
	// Variant is the micro-kernel shape the step dispatched to at compile
	// time ("" for steps with no kernel family).
	Variant         string  `json:"variant,omitempty"`
	ModelledSeconds float64 `json:"modelled_s_per_row"`
	MeasuredSeconds float64 `json:"measured_s_per_row"`
	// Ratio is measured/modelled (0 until the step has executed). The
	// absolute level mixes host and modelled-device scales; drift
	// detection compares it across runs.
	Ratio float64 `json:"ratio"`
	Rows  int64   `json:"rows"`
}

// driftDist orders drift rows worst-first: distance from parity in log
// space (a step 10× over and one 10× under are equally far off). Rows
// without data sort last.
func driftDist(ratio float64) float64 {
	if ratio <= 0 {
		return -1
	}
	return math.Abs(math.Log(ratio))
}

// CostModelReport returns the model's per-step modelled-vs-measured cost
// comparison, worst offenders (largest |log ratio|) first. Nil until the
// first batch has executed (step instruments are built lazily).
func (m *Model) CostModelReport() []StepCostDrift {
	so := m.stepObs.Load()
	if so == nil {
		return nil
	}
	out := make([]StepCostDrift, 0, len(so.measured))
	for i := range so.measured {
		d := StepCostDrift{
			Step:            strings.TrimPrefix(so.spanNames[i], "step:"),
			Variant:         so.variants[i],
			ModelledSeconds: so.modelled[i],
			Rows:            so.measured[i].rows.Load(),
		}
		if d.Rows > 0 {
			d.MeasuredSeconds = float64(so.measured[i].nanos.Load()) / float64(d.Rows) / 1e9
		}
		if d.ModelledSeconds > 0 && d.MeasuredSeconds > 0 {
			d.Ratio = d.MeasuredSeconds / d.ModelledSeconds
		}
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool { return driftDist(out[i].Ratio) > driftDist(out[j].Ratio) })
	return out
}

// traceSpans replays the batch timing block of one response into a
// sampled trace: queue wait, the batched execute, and one span per
// compiled-plan step (offsets chained inside the execute window).
func (m *Model) traceSpans(tr *obs.Trace, resp *response) {
	tr.Batch = resp.batch
	execOff := resp.execStart.Sub(tr.Start).Nanoseconds()
	tr.AddSpan("queue_wait", execOff-resp.queueNanos, resp.queueNanos)
	tr.AddSpan("execute", execOff, resp.execNanos)
	so := m.stepObs.Load()
	off := execOff
	for i := 0; i < resp.nsteps; i++ {
		name := "step"
		if so != nil && i < len(so.spanNames) {
			name = so.spanNames[i]
		}
		tr.AddSpan(name, off, resp.stepNanos[i])
		off += resp.stepNanos[i]
	}
}

// cacheMetrics is the registry-wide program instrument set every
// model's programs share: the ModelledCost hit/miss counters, the count
// of priced programs dropped with their models, the pricing-latency
// histogram Program.Cost observes after each pricing and the plan-build
// histogram Program.GetPlan observes after each plan it builds.
type cacheMetrics struct {
	hits, misses, evictions atomic.Int64
	compile                 *obs.Histogram
	planBuild               *obs.Histogram
}

// newCacheMetrics exposes the program counters on the registry. The
// hit/miss/eviction totals read the atomics at scrape time, so the
// request path pays no double bookkeeping.
func newCacheMetrics(reg *obs.Registry) *cacheMetrics {
	c := &cacheMetrics{
		compile:   reg.Histogram(metCacheCompile, obs.LatencyBuckets()),
		planBuild: reg.Histogram(metPlanBuild, obs.LatencyBuckets()),
	}
	reg.CounterFunc(metCacheHits, c.hits.Load)
	reg.CounterFunc(metCacheMisses, c.misses.Load)
	reg.CounterFunc(metCacheEvict, c.evictions.Load)
	return c
}
