// Package serve is the inference-serving subsystem: it turns the trainable
// SHL models of internal/nn into concurrently-callable predictors.
//
// Three pieces compose the serving path:
//
//   - a Registry that builds and versions servable models from the existing
//     constructors (nn.BuildSHL, nn.BuildSHLPixelfly) behind the
//     thread-safe Predictor interface;
//   - a work-conserving micro-batcher (Batcher): a free worker takes every
//     request already waiting as one tensor.Matrix batch, so requests
//     coalesce while the workers are busy (a batched butterfly multiply
//     amortizes the O(N log N) factor sweeps across the whole batch) and
//     none waits for company while a worker is idle;
//   - per model version, one lowering and one compiled Program per
//     power-of-two batch bucket up to MaxBatch, created when the model is
//     installed: each holds the host plans batches execute on (nn.Plan,
//     or shard.ShardedPlan across the model's modelled IPUs) and the
//     memoized ipu.Compile cost every response carries.
//
// Every batch runs on a compiled plan; a batch whose plan cannot be
// compiled or executed fails. nn.Sequential.Infer is not part of the
// serving path: it is the oracle tests and perfbench check responses
// against.
//
// Server exposes the whole thing over an HTTP JSON API.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fft"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/pixelfly"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// ErrStopped is returned by Predict once a model's batcher has been shut
// down (the model was replaced or the registry closed).
var ErrStopped = errors.New("serve: model stopped")

// ErrBadInput marks client mistakes (wrong feature width); the HTTP layer
// maps it to 400 instead of 500.
var ErrBadInput = errors.New("serve: bad input")

// ErrNonFinite marks a request whose finite features drove a score to
// ±Inf or NaN (float32 overflow), which JSON cannot carry; the HTTP layer
// maps it to 422.
var ErrNonFinite = errors.New("serve: non-finite scores")

// allFinite reports whether no score is ±Inf or NaN.
func allFinite(scores []float32) bool {
	for _, v := range scores {
		if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
			return false
		}
	}
	return true
}

// ModelSpec describes a servable model to build.
type ModelSpec struct {
	Name    string    // registry key; non-empty
	Method  nn.Method // Table 4 row to build
	N       int       // layer width (power of two)
	Classes int       // output classes
	Seed    int64     // weight-init seed, so a spec rebuilds reproducibly

	// Pixelfly optionally overrides the paper's pixelfly configuration
	// (only consulted when Method == nn.Pixelfly; its N must equal N).
	Pixelfly *pixelfly.Config
}

func (s ModelSpec) validate() error {
	if s.Name == "" {
		return errors.New("serve: model name must be non-empty")
	}
	if s.N <= 0 || !fft.IsPowerOfTwo(s.N) {
		return fmt.Errorf("serve: model %q: N=%d must be a positive power of two", s.Name, s.N)
	}
	if s.Classes <= 0 {
		return fmt.Errorf("serve: model %q: classes=%d must be positive", s.Name, s.Classes)
	}
	if s.Pixelfly != nil {
		if s.Method != nn.Pixelfly {
			return fmt.Errorf("serve: model %q: pixelfly config given for method %v", s.Name, s.Method)
		}
		if s.Pixelfly.N != s.N {
			return fmt.Errorf("serve: model %q: pixelfly config N=%d != spec N=%d", s.Name, s.Pixelfly.N, s.N)
		}
		if err := s.Pixelfly.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// pixelflyConfig returns the effective pixelfly configuration of the spec.
func (s ModelSpec) pixelflyConfig() pixelfly.Config {
	if s.Pixelfly != nil {
		return *s.Pixelfly
	}
	return nn.PaperPixelflyConfig(s.N)
}

// buildNet constructs the spec's network, converting constructor panics
// (e.g. an invalid pixelfly geometry) into errors.
func buildNet(spec ModelSpec) (net *nn.Sequential, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: building %q: %v", spec.Name, r)
		}
	}()
	rng := newRNG(spec.Seed)
	if spec.Method == nn.Pixelfly && spec.Pixelfly != nil {
		return nn.BuildSHLPixelfly(*spec.Pixelfly, spec.Classes, rng)
	}
	return nn.BuildSHL(spec.Method, spec.N, spec.Classes, rng), nil
}

// ModelInfo is the descriptive snapshot of a registered model.
type ModelInfo struct {
	Name    string `json:"name"`
	Method  string `json:"method"`
	N       int    `json:"n"`
	Classes int    `json:"classes"`
	Params  int    `json:"params"`
	Version int    `json:"version"`
	Shards  int    `json:"shards"`
}

// Prediction is the result of one served request.
type Prediction struct {
	Model   string    `json:"model"`
	Method  string    `json:"method"`
	Version int       `json:"version"`
	Scores  []float32 `json:"scores"`
	ArgMax  int       `json:"argmax"`

	// BatchSize is the number of requests coalesced into the batch this
	// prediction rode in; LatencySeconds is the measured host-side time
	// from enqueue to response.
	BatchSize      int     `json:"batch_size"`
	LatencySeconds float64 `json:"latency_s"`

	// IPU is the modelled cost of executing this request's batch (rounded
	// up to its power-of-two bucket) on the device model; nil when the
	// program could not be compiled (e.g. tile OOM).
	IPU *ProgramCost `json:"ipu,omitempty"`
}

// Predictor is a thread-safe inference handle: any number of goroutines
// may call Predict concurrently.
type Predictor interface {
	Predict(ctx context.Context, features []float32) (Prediction, error)
	Info() ModelInfo
}

// Model is one servable model version: immutable weights, their
// lowering, the micro-batcher and the compiled programs of its batch
// buckets. It implements Predictor.
type Model struct {
	spec    ModelSpec
	version int
	net     *nn.Sequential
	params  int

	// low is the network's lowering, made once at install: pricing and
	// the shard planner read it. exe is low packed, made under exeMu by
	// the first plan built; every plan of the model version runs it.
	low   *nn.Lowering
	exeMu sync.Mutex
	exe   *nn.Lowering

	// progs holds the program of every power-of-two batch bucket, from
	// 1 up to the first power of two at or above MaxBatch: progs[i]
	// serves batches of up to 1<<i rows.
	progs []*Program

	// methodLabel is what Info/Prediction report as the method; for
	// spec-built models it is the Method's name, for compressed models it
	// describes the compressed layout (e.g. "compressed/lowrank-r4").
	methodLabel string
	// workload builds the IPU workload that prices this model; installed
	// once at registration (layout-aware for compressed models,
	// spec-derived otherwise) so the batch hot path creates no closures.
	workload workloadBuilder

	batcher *Batcher
	cache   *cacheMetrics
	topo    shard.Topology
	shards  int
	budget  int // per-IPU bytes the shard planner fits plans into (0 = SRAM)

	// factorErr is the max per-layer relative factorization error of the
	// weights the model serves (0 for exactly-built models) - the accuracy
	// side of the paper's memory/accuracy trade, surfaced in /stats and as
	// a gauge.
	factorErr float64

	// Observability wiring, installed by the registry: the metric registry
	// (for the lazily built per-step instruments), the per-model
	// instruments, the request tracer, and the per-step instrument set.
	// All nil/zero for models built outside a registry.
	obsReg  *obs.Registry
	tracer  *obs.Tracer
	mets    *modelMetrics
	stepObs atomic.Pointer[stepObs]

	// kstats is the registry-wide per-kernel accounting sink observeExec
	// records every executed step into (nil outside a registry).
	kstats *obs.KernelStats

	// timeline is the model's BSP phase flight recorder: observeExec
	// hands it every executed batch's frame, and it derives one batch in
	// N into the /debug/timeline ring and the phase gauges. Nil when
	// disabled (or outside a registry).
	timeline *timeline.Recorder

	// pprofCtx carries the model's pprof label ("model"), which the
	// batcher's workers wear; each sharded plan derives its shards'
	// ipu=<k> labels from it.
	pprofCtx context.Context

	// readiness memoizes the /healthz plan-compile probe: nil until the
	// first probe, then the cached verdict (a model's plan compilability
	// does not change after install).
	readiness atomic.Pointer[readyState]

	served atomic.Int64
	lat    *latencyRing
}

var _ Predictor = (*Model)(nil)

// Info implements Predictor.
func (m *Model) Info() ModelInfo {
	return ModelInfo{
		Name:    m.spec.Name,
		Method:  m.methodLabel,
		N:       m.spec.N,
		Classes: m.spec.Classes,
		Params:  m.params,
		Version: m.version,
		Shards:  m.shards,
	}
}

// Shards returns how many modelled IPUs the model serves on.
func (m *Model) Shards() int { return m.shards }

// Predict implements Predictor: the request is coalesced with concurrent
// ones into a micro-batch, executed on the shared read-only weights, and
// annotated with the modelled IPU cost of its batch. Sampled requests
// (via the registry's tracer, or a trace already attached to ctx by the
// HTTP layer) additionally record queue-wait, execute and per-step spans.
func (m *Model) Predict(ctx context.Context, features []float32) (Prediction, error) {
	if len(features) != m.spec.N {
		if m.mets != nil {
			m.mets.errors.Inc()
		}
		return Prediction{}, fmt.Errorf("%w: model %q expects %d features, got %d",
			ErrBadInput, m.spec.Name, m.spec.N, len(features))
	}
	// The HTTP layer owns (and finishes) traces it attached to the
	// context; direct callers get one sampled here and finished here.
	// When an upstream layer already made the sampling decision —
	// sampled or not — respect it rather than drawing from the shared
	// counter a second time for the same request.
	tr := obs.TraceFrom(ctx)
	owned := false
	if tr == nil && m.tracer != nil && !obs.TraceDecided(ctx) {
		if tr = m.tracer.Sample(m.spec.Name); tr != nil {
			owned = true
		}
	}
	start := time.Now()
	resp, err := m.batcher.do(ctx, features)
	if err == nil {
		err = resp.err
	}
	if err == nil && !allFinite(resp.scores) {
		err = fmt.Errorf("%w from model %q", ErrNonFinite, m.spec.Name)
	}
	if err != nil {
		if m.mets != nil {
			m.mets.errors.Inc()
		}
		if tr != nil {
			tr.Error = err.Error()
			if owned {
				m.tracer.Finish(tr)
			}
		}
		return Prediction{}, err
	}
	elapsed := time.Since(start).Seconds()
	m.served.Add(1)
	m.lat.add(elapsed)
	if m.mets != nil {
		m.mets.latency.Observe(elapsed)
	}
	if tr != nil {
		m.traceSpans(tr, &resp)
	}

	p := Prediction{
		Model:          m.spec.Name,
		Method:         m.methodLabel,
		Version:        m.version,
		Scores:         resp.scores,
		ArgMax:         stats.ArgMax(resp.scores),
		BatchSize:      resp.batch,
		LatencySeconds: elapsed,
	}
	if tr != nil {
		costStart := time.Now()
		cost, cerr := m.ModelledCost(resp.batch)
		tr.AddSpanAt("cost_lookup", costStart, time.Since(costStart))
		if cerr == nil {
			p.IPU = cost
		}
		if owned {
			m.tracer.Finish(tr)
		}
	} else if cost, cerr := m.ModelledCost(resp.batch); cerr == nil {
		p.IPU = cost
	}
	if p.IPU != nil && m.mets != nil {
		m.mets.modelled.Set(p.IPU.PerRequestSeconds)
	}
	return p, nil
}

// ModelledCost returns the memoized modelled IPU cost of executing a
// batch of the given size, rounded up to its power-of-two bucket; a batch
// below 1 or above the largest bucket is an error. This per-request call
// is the one that feeds the registry's hit/miss statistics: a hit finds
// its bucket already priced.
func (m *Model) ModelledCost(batch int) (*ProgramCost, error) {
	p, err := m.program(batch)
	if err != nil {
		return nil, err
	}
	if p.costDone.Load() {
		m.cache.hits.Add(1)
	} else {
		m.cache.misses.Add(1)
	}
	return p.Cost()
}

// program returns the program of the bucket a batch of rows rounds up to.
func (m *Model) program(rows int) (*Program, error) {
	i := bits.Len(uint(rows - 1))
	if rows < 1 || i >= len(m.progs) {
		return nil, fmt.Errorf("serve: model %q has programs for batches of 1 to %d rows, not %d",
			m.spec.Name, m.progs[len(m.progs)-1].batch, rows)
	}
	return m.progs[i], nil
}

// packed returns the packed lowering every plan of the model runs,
// packing the weights on first use.
func (m *Model) packed() *nn.Lowering {
	m.exeMu.Lock()
	defer m.exeMu.Unlock()
	if m.exe == nil {
		m.exe = m.low.Pack()
	}
	return m.exe
}

// runBatch is the micro-batcher's inference function: it executes the
// batch on a compiled plan from the program's free list (allocation-free
// at steady state except the result copy handed to responses). The
// executor's frame is derived into info and the model's instruments
// before the plan goes back to the program. A program, plan or Execute
// error fails the batch.
func (m *Model) runBatch(x *tensor.Matrix, info *execInfo) (*tensor.Matrix, error) {
	prog, err := m.program(x.Rows)
	if err != nil {
		return nil, err
	}
	pl, err := prog.GetPlan()
	if err != nil {
		return nil, err
	}
	returned := false
	defer func() {
		if !returned {
			// Execute panicked (safeRun reports it): the plan's
			// barrier or handoff tokens may still be in flight,
			// so close it instead of handing it out again.
			closePlan(pl)
		}
	}()
	y, err := pl.Execute(x)
	if err != nil {
		returned = true
		prog.PutPlan(pl)
		return nil, err
	}
	// Copy out before returning the plan: responses alias rows of the
	// returned matrix, and the plan's buffers are recycled by the next
	// worker that takes it.
	out := tensor.New(y.Rows, y.Cols)
	copy(out.Data, y.Data)
	m.observeExec(pl, info)
	returned = true
	prog.PutPlan(pl)
	return out, nil
}

// Timeline returns the model's BSP phase flight recorder (nil when
// timelines are disabled or the model was built outside a registry).
func (m *Model) Timeline() *timeline.Recorder { return m.timeline }

// readyState is the memoized verdict of one readiness probe.
type readyState struct {
	ready bool
	err   string
}

// Ready reports whether the model can serve: not stopped, and a plan of
// its smallest batch bucket materializes. The probe runs once and its
// verdict is memoized, so health checks stay cheap; a compile failure
// surfaces its error. A probe racing the model's stop hands its plan back
// to a closed program, which closes it.
func (m *Model) Ready() (bool, string) {
	select {
	case <-m.batcher.stopped:
		return false, "model stopped"
	default:
	}
	if rs := m.readiness.Load(); rs != nil {
		return rs.ready, rs.err
	}
	rs := &readyState{}
	prog := m.progs[0]
	if pl, err := prog.GetPlan(); err != nil {
		rs.err = err.Error()
	} else {
		prog.PutPlan(pl)
		rs.ready = true
	}
	m.readiness.Store(rs)
	return rs.ready, rs.err
}

// Stats returns the model's serving counters.
func (m *Model) Stats() ModelStats {
	return ModelStats{
		Info:               m.Info(),
		Served:             m.served.Load(),
		Batcher:            m.batcher.Stats(),
		Latency:            stats.Summarize(m.lat.snapshot()),
		FactorizationError: m.factorErr,
	}
}

// ModelStats is the per-model block of the /stats endpoint.
type ModelStats struct {
	Info    ModelInfo     `json:"info"`
	Served  int64         `json:"served"`
	Batcher BatcherStats  `json:"batcher"`
	Latency stats.Summary `json:"latency_s"`

	// FactorizationError is the max per-layer relative Frobenius error of
	// the served weights (non-zero only for compressed models).
	FactorizationError float64 `json:"factorization_error,omitempty"`
}

// stop shuts the model's batcher down (in-flight Predicts get
// ErrStopped) and, once it has drained, closes every program: their idle
// plans now, plans still held when they come back. The programs it had
// priced count as evictions.
func (m *Model) stop() {
	m.batcher.Stop()
	m.cache.evictions.Add(int64(m.priced()))
	for _, p := range m.progs {
		p.close()
	}
}

// priced counts the model's programs whose pricing has finished.
func (m *Model) priced() int {
	n := 0
	for _, p := range m.progs {
		if p.costDone.Load() {
			n++
		}
	}
	return n
}

// prevPow2 rounds n down to a power of two (n ≥ 1) — the shard counts the
// partitioner accepts.
func prevPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// nextPow2 rounds n up to the next power of two. Of MaxBatch it is a
// model's largest batch bucket, so a model holds O(log MaxBatch) programs
// instead of one per distinct coalesced batch size.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// latencyRing keeps the most recent request latencies (seconds) for the
// percentile report, bounded so an arbitrarily long-lived server does not
// grow without bound.
type latencyRing struct {
	mu   sync.Mutex
	buf  []float64
	next int
	full bool
}

func newLatencyRing(n int) *latencyRing { return &latencyRing{buf: make([]float64, n)} }

func (l *latencyRing) add(v float64) {
	l.mu.Lock()
	l.buf[l.next] = v
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.full = true
	}
	l.mu.Unlock()
}

func (l *latencyRing) snapshot() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.full {
		return append([]float64(nil), l.buf...)
	}
	return append([]float64(nil), l.buf[:l.next]...)
}
