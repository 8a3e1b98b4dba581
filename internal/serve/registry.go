package serve

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"

	"repro/internal/ipu"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/shard"
)

// latencyWindow bounds how many recent request latencies each model keeps
// for the percentile report.
const latencyWindow = 8192

func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Options configure a Registry.
type Options struct {
	// IPU is the device model every model's programs are priced on.
	// The zero value selects the paper's GC200.
	IPU ipu.Config
	// Batcher is applied to every model's micro-batcher.
	Batcher BatcherConfig

	// NumIPUs is how many modelled IPUs each model may shard across
	// (0 or 1 = unsharded serving), linked by ipu.IPULink().
	NumIPUs int
	// PerIPUMemBytes is the per-IPU memory budget the registry fits
	// models into when auto-picking a shard count (0 = the chip's SRAM).
	PerIPUMemBytes int
	// Shards fixes the shard count for every registered model instead of
	// auto-picking the smallest count that fits PerIPUMemBytes (0 = auto).
	Shards int
	// TraceSampleEvery samples one request in every N for the
	// /debug/traces ring (0 = default 64; negative disables tracing).
	TraceSampleEvery int
	// TraceKeep is how many finished traces the ring retains (0 = 64).
	TraceKeep int

	// TimelineSampleEvery samples one executed batch in every N into the
	// per-model BSP phase flight recorder behind /debug/timeline and the
	// phase gauges (0 = default 16; negative disables timelines). Each
	// recorder retains the last timelineKeep sampled batches.
	TimelineSampleEvery int
}

// Default trace sampling: one request in 64, last 64 traces retained.
const (
	defaultTraceSampleEvery = 64
	defaultTraceKeep        = 64
)

// Default timeline sampling: one executed batch in 16, last 8 batch
// timelines retained per model.
const (
	defaultTimelineSampleEvery = 16
	timelineKeep               = 8
)

// Registry builds, versions and owns servable models. Each model version
// owns its lowering and its bucket programs; the registry keeps only the
// program counters they share. All methods are safe for concurrent use;
// the Predictors it hands out are safe to share across goroutines.
type Registry struct {
	opts Options
	topo shard.Topology
	// cache holds the program counters and histograms every model's
	// programs share.
	cache *cacheMetrics

	// obs is the metric registry every instrument of this serving stack
	// registers into (scraped by the HTTP server's /metrics); tracer
	// samples per-request traces for /debug/traces.
	obs    *obs.Registry
	tracer *obs.Tracer
	// kstats is the registry-wide per-kernel accounting sink every model's
	// plans record into; exported on /metrics as kernel_gflops /
	// kernel_bytes_per_sec.
	kstats *obs.KernelStats

	mu       sync.RWMutex
	models   map[string]*Model
	versions map[string]int // last version issued per name, survives Remove
}

// NewRegistry creates an empty registry.
func NewRegistry(opts Options) *Registry {
	if opts.IPU.Tiles == 0 {
		opts.IPU = ipu.GC200()
	}
	if opts.NumIPUs < 1 {
		opts.NumIPUs = 1
	}
	topo := shard.Topology{NumIPUs: opts.NumIPUs, IPU: opts.IPU, Link: ipu.IPULink()}
	r := &Registry{
		opts:     opts,
		topo:     topo,
		obs:      obs.NewRegistry(),
		models:   map[string]*Model{},
		versions: map[string]int{},
	}
	registerHelp(r.obs)
	r.kstats = obs.NewKernelStats()
	r.kstats.Export(r.obs, metKernelGflops, metKernelBytes)
	r.cache = newCacheMetrics(r.obs)
	r.obs.GaugeFunc(metCacheEntries, func() float64 { return float64(r.entries()) })
	r.obs.GaugeFunc(metModels, func() float64 {
		r.mu.RLock()
		n := len(r.models)
		r.mu.RUnlock()
		return float64(n)
	})
	if opts.TraceSampleEvery >= 0 {
		every, keep := opts.TraceSampleEvery, opts.TraceKeep
		if every == 0 {
			every = defaultTraceSampleEvery
		}
		if keep == 0 {
			keep = defaultTraceKeep
		}
		r.tracer = obs.NewTracer(every, keep)
	}
	return r
}

// Obs returns the registry's metric registry — the one /metrics scrapes
// and external callers may add their own instruments to.
func (r *Registry) Obs() *obs.Registry { return r.obs }

// Tracer returns the registry's request tracer (nil when tracing is
// disabled via a negative TraceSampleEvery).
func (r *Registry) Tracer() *obs.Tracer { return r.tracer }

// KernelStats returns the registry-wide per-kernel accounting sink — the
// source of the ipuserve_kernel_* gauges and of perfbench's kernel.*
// metrics.
func (r *Registry) KernelStats() *obs.KernelStats { return r.kstats }

// Register builds the spec's network, lowers it and installs it under
// spec.Name. A name already in use is replaced: the new model gets the
// next version number and the old model's batcher is stopped (its
// in-flight requests get ErrStopped; callers holding the old Predictor
// must re-resolve).
func (r *Registry) Register(spec ModelSpec) (*Model, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	net, err := buildNet(spec)
	if err != nil {
		return nil, err
	}
	return r.install(spec, net, spec.Method.String(), nil, 0)
}

// install lowers a built network once, wires it into a servable Model
// with one program per batch bucket, and swaps it into the registry under
// spec.Name; a network that does not lower is refused. A nil workload
// builder means the cost model derives the workload from the spec's
// method; factorErr is the max per-layer relative factorization error of
// the installed weights (0 for exactly-built models). Nothing is packed
// and no plan is built here.
func (r *Registry) install(spec ModelSpec, net *nn.Sequential, label string, wb workloadBuilder, factorErr float64) (*Model, error) {
	low, err := net.Lower(nn.PlanOptions{})
	if err != nil {
		return nil, fmt.Errorf("serve: lowering %q: %w", spec.Name, err)
	}
	if wb == nil {
		wb = func(cfg ipu.Config, batch int) (*ipu.Workload, error) {
			return buildWorkload(cfg, spec, batch)
		}
	}
	bcfg := r.opts.Batcher.withDefaults()
	top := nextPow2(bcfg.MaxBatch)
	m := &Model{
		spec:        spec,
		net:         net,
		low:         low,
		params:      net.ParamCount(),
		methodLabel: label,
		workload:    wb,
		cache:       r.cache,
		topo:        r.topo,
		shards:      r.pickShards(low, top),
		budget:      r.opts.PerIPUMemBytes,
		factorErr:   factorErr,
		obsReg:      r.obs,
		tracer:      r.tracer,
		kstats:      r.kstats,
		lat:         newLatencyRing(latencyWindow),
	}
	for b := 1; b <= top; b *= 2 {
		m.progs = append(m.progs, &Program{m: m, batch: b})
	}
	m.mets = newModelMetrics(r.obs, spec.Name, m.shards)
	m.mets.factorization.Set(factorErr)
	if r.opts.TimelineSampleEvery >= 0 {
		every := r.opts.TimelineSampleEvery
		if every == 0 {
			every = defaultTimelineSampleEvery
		}
		m.timeline = timeline.NewRecorder(every, timelineKeep)
		r.registerPhaseGauges(m)
	}
	// The batcher's instruments must exist before its goroutines start:
	// the workers read the metrics pointer without synchronization. The
	// workers inherit the model's pprof label from this goroutine, so CPU
	// profiles attribute each batch to the model that ran it.
	bm := newBatcherMetrics(r.obs, spec.Name)
	pprof.Do(context.Background(), pprof.Labels("model", spec.Name), func(ctx context.Context) {
		m.pprofCtx = ctx
		m.batcher = newBatcher(spec.N, bcfg, bm, m.runBatch)
	})
	// Scrape-time readers over the model's existing serving atomics —
	// re-registering on replace swaps the closures to the new instance
	// (counter-reset semantics, which Prometheus handles).
	lm := obs.L{Key: "model", Value: spec.Name}
	r.obs.CounterFunc(metRequests, m.served.Load, lm)
	r.obs.GaugeFunc(metQueueDepth, func() float64 { return float64(len(m.batcher.reqs)) }, lm)

	r.mu.Lock()
	r.versions[spec.Name]++
	m.version = r.versions[spec.Name]
	old := r.models[spec.Name]
	r.models[spec.Name] = m
	r.mu.Unlock()

	if old != nil {
		// Stopping drains the old version's in-flight batches and closes
		// its programs' plans, so replaced weights and sharded-plan
		// workers don't accumulate across redeploys.
		old.stop()
	}
	return m, nil
}

// registerPhaseGauges exports the model's flight-recorder phase totals:
// one ipuserve_phase_seconds{model,ipu,phase} gauge per (modelled IPU,
// BSP phase) and the model's pipeline bubble fraction. Phase seconds are
// extrapolated from the sampled batches by the sampling period (an
// unbiased estimate of total executor time per phase, as documented in
// the HELP text); the bubble fraction is a ratio, so sampling cancels.
// Removing the model drops the series via DropLabeled("model", ...)
// like every other per-model instrument.
func (r *Registry) registerPhaseGauges(m *Model) {
	rec := m.timeline
	scale := float64(rec.SampleEvery())
	lm := obs.L{Key: "model", Value: m.spec.Name}
	for i := 0; i < m.shards; i++ {
		li := obs.L{Key: "ipu", Value: strconv.Itoa(i)}
		for _, ph := range timeline.Phases {
			ipu, ph := i, ph
			r.obs.GaugeFunc(metPhaseSeconds, func() float64 {
				return rec.PhaseSeconds(ipu, ph) * scale
			}, lm, li, obs.L{Key: "phase", Value: ph.String()})
		}
	}
	r.obs.GaugeFunc(metBubbleFraction, rec.BubbleFraction, lm)
}

// pickShards decides how many modelled IPUs a model serves on: the fixed
// Options.Shards when set, otherwise the smallest power-of-two count whose
// per-IPU footprint (priced by the shard planner on the model's lowering,
// at the largest batch bucket) fits the per-IPU memory budget. Pricing
// packs no weight and builds no plan. When nothing fits, the full
// topology is used anyway — the registry still serves, oversubscribed in
// the model, and ProgramCost reports the overflow.
func (r *Registry) pickShards(low *nn.Lowering, batch int) int {
	if r.opts.Shards > 0 {
		// Shard counts must be powers of two (slices and butterfly stages
		// halve); round a fixed request down so the shard compiler never
		// rejects what the registry promised.
		return prevPow2(min(r.opts.Shards, r.topo.NumIPUs))
	}
	if r.topo.NumIPUs <= 1 {
		return 1
	}
	cost, _, err := shard.FitShards(low, batch, r.topo, r.opts.PerIPUMemBytes)
	if err != nil {
		return 1
	}
	return cost.Shards
}

// Get returns the current model registered under name.
func (r *Registry) Get(name string) (*Model, bool) {
	r.mu.RLock()
	m, ok := r.models[name]
	r.mu.RUnlock()
	return m, ok
}

// Models returns the registered models sorted by name — the iteration
// surface report endpoints (e.g. /debug/costmodel) walk.
func (r *Registry) Models() []*Model {
	r.mu.RLock()
	out := make([]*Model, 0, len(r.models))
	for _, m := range r.models {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].spec.Name < out[j].spec.Name })
	return out
}

// ModelHealth is one model's row of the /healthz readiness report.
type ModelHealth struct {
	Model   string `json:"model"`
	Version int    `json:"version"`
	Shards  int    `json:"shards"`
	Ready   bool   `json:"ready"`
	Error   string `json:"error,omitempty"`
}

// Health probes every registered model's readiness (a plan of its
// smallest bucket, memoized per model), sorted by name.
func (r *Registry) Health() []ModelHealth {
	models := r.Models()
	out := make([]ModelHealth, 0, len(models))
	for _, m := range models {
		ready, errStr := m.Ready()
		out = append(out, ModelHealth{
			Model:   m.spec.Name,
			Version: m.version,
			Shards:  m.shards,
			Ready:   ready,
			Error:   errStr,
		})
	}
	return out
}

// List returns the registered models sorted by name.
func (r *Registry) List() []ModelInfo {
	r.mu.RLock()
	infos := make([]ModelInfo, 0, len(r.models))
	for _, m := range r.models {
		infos = append(infos, m.Info())
	}
	r.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Remove unregisters and stops the named model; it reports whether the
// model existed. A later Register under the same name continues the
// version sequence.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	m, ok := r.models[name]
	delete(r.models, name)
	r.mu.Unlock()
	if ok {
		m.stop()
		// Retire every series carrying the model label (including the
		// Func closures over the removed model's state).
		r.obs.DropLabeled("model", name)
	}
	return ok
}

// CacheStats snapshots the program counters of every model the registry
// serves or has served.
func (r *Registry) CacheStats() CacheStats {
	s := CacheStats{
		Hits:      r.cache.hits.Load(),
		Misses:    r.cache.misses.Load(),
		Evictions: r.cache.evictions.Load(),
		Entries:   r.entries(),
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// entries counts the priced programs of the registered models.
func (r *Registry) entries() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, m := range r.models {
		n += m.priced()
	}
	return n
}

// Stats returns per-model serving statistics sorted by name.
func (r *Registry) Stats() []ModelStats {
	r.mu.RLock()
	out := make([]ModelStats, 0, len(r.models))
	for _, m := range r.models {
		out = append(out, m.Stats())
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Info.Name < out[j].Info.Name })
	return out
}

// Close stops every model's batcher and closes its programs' plans.
func (r *Registry) Close() {
	r.mu.Lock()
	models := make([]*Model, 0, len(r.models))
	for _, m := range r.models {
		models = append(models, m)
	}
	r.models = map[string]*Model{}
	r.mu.Unlock()
	for _, m := range models {
		m.stop()
		r.obs.DropLabeled("model", m.spec.Name)
	}
}
