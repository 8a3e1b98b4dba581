// Package timeline is the BSP phase flight recorder: a per-batch record
// of what every modelled IPU was doing — computing, exchanging, waiting
// at a barrier, or sitting in a pipeline bubble — over one executed
// batch, in the spirit of Graphcore's PopVision execution profiles.
//
// The executors (nn.Plan, shard.ShardedPlan) only measure: each writes
// one Frame per batch — a kernel cell per (micro-step, micro-batch,
// modelled IPU), the barrier loop's step spans and the batch wall. The
// serving layer derives every view from that frame: step times and
// per-IPU compute on every batch, and on sampled batches the timeline
// events, read back as a utilization summary (/debug/timeline) and as
// Chrome trace-event JSON loadable in Perfetto. Recording is built for
// the serving hot path:
//
//   - batches are sampled one-in-N (like obs.Tracer), so most batches
//     pay one atomic add and nothing else;
//   - a sampled batch's events are derived on the serving goroutine
//     into a buffer the last-N ring evicted, so steady-state recording
//     performs zero heap allocations.
//
// Phase semantics on the host executor: compute is a shard's measured
// kernel time; every other span of an IPU's batch wall is a wait,
// labelled by what it waits on: bubble for pipeline fill and drain,
// exchange for a step or boundary the cost model prices IPU-Link
// traffic into, barrier_wait otherwise. Each IPU's events tile the
// batch wall exactly.
package timeline

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase classifies one event of the BSP execution model. The zero value
// is reserved as invalid.
type Phase uint8

const (
	phaseInvalid Phase = iota
	// Compute is a shard's kernel running inside one micro-step.
	Compute
	// Exchange is a wait on a step or stage boundary the cost model
	// prices IPU-Link traffic into (all-gather, butterfly pairwise
	// round, pipeline p2p hop).
	Exchange
	// BarrierWait is any other wait — host sync skew and wake-up.
	BarrierWait
	// Bubble is a pipeline stage idling before its first input (fill)
	// or after its last output (drain).
	Bubble

	numPhases = 4
)

// Phases lists the real phases in a stable order — the iteration surface
// for per-phase gauges and reports.
var Phases = [numPhases]Phase{Compute, Exchange, BarrierWait, Bubble}

func (p Phase) String() string {
	switch p {
	case Compute:
		return "compute"
	case Exchange:
		return "exchange"
	case BarrierWait:
		return "barrier_wait"
	case Bubble:
		return "bubble"
	default:
		return "invalid"
	}
}

// index maps a phase to its accumulator slot (Compute = 0).
func (p Phase) index() int { return int(p) - 1 }

// Event is one phase span on one modelled IPU's track, offset-encoded
// against the batch's start so a timeline serializes without per-event
// wall clocks.
type Event struct {
	Step  int32 `json:"step"`
	IPU   int32 `json:"ipu"`
	Phase Phase `json:"phase"`
	// MB is the micro-batch index inside a wavefront-scheduled batch;
	// 0 for the single-micro-batch executors.
	MB int32 `json:"mb,omitempty"`
	// StartNanos is the monotonic offset from the batch's start;
	// DurNanos the span length.
	StartNanos int64 `json:"start_ns"`
	DurNanos   int64 `json:"dur_ns"`
}

// Cell is one measured span of an executed batch, in nanoseconds from
// the batch's first clock read: a kernel's run, or a barrier-loop step
// from its workers' wake to its barrier.
type Cell struct {
	Start int64
	Dur   int64
}

// Frame is an executor's one measurement of a batch: a kernel cell per
// (micro-step, micro-batch, modelled IPU), the barrier loop's step
// spans, and the batch wall. The executor owns it and rewrites it on
// every Execute without allocating; the serving layer derives every
// view of the batch from it — step times, per-IPU compute and, on
// sampled batches, the timeline events.
//
// Steps, IPUs and Owner are fixed at compile time. Owner, when set,
// maps each micro-step to the one pipeline stage that runs it (the
// wavefront), and only that IPU's cells are written; nil means every
// IPU runs every step (nn.Plan, the tensor-parallel barrier loop).
type Frame struct {
	Steps, IPUs int
	Owner       []int

	// Rows and Micro describe the last batch: its row count and the
	// micro-batches it streamed as (1 outside the wavefront). Start is
	// its first clock read and Wall its duration in nanoseconds.
	Rows, Micro int
	Start       time.Time
	Wall        int64

	// Spans holds the barrier loop's per-step spans, whose durations are
	// its step times; nil for the other executors.
	Spans []Cell

	cells []Cell // (step*Micro+mb)*IPUs + ipu, sized for the widest batch
}

// NewFrame sizes a frame for steps × maxMicro × ipus kernel cells;
// spans adds the barrier loop's per-step spans. owner is kept, not
// copied.
func NewFrame(steps, ipus, maxMicro int, owner []int, spans bool) *Frame {
	f := &Frame{Steps: steps, IPUs: ipus, Owner: owner, Micro: 1,
		cells: make([]Cell, steps*max(maxMicro, 1)*ipus)}
	if spans {
		f.Spans = make([]Cell, steps)
	}
	return f
}

// Begin starts a batch of rows rows streamed as micro micro-batches, at
// most the maxMicro the frame was sized for.
func (f *Frame) Begin(rows, micro int) { f.Rows, f.Micro = rows, micro }

// Cell returns kernel cell (step, mb, ipu) of the current batch.
func (f *Frame) Cell(step, mb, ipu int) *Cell {
	return &f.cells[(step*f.Micro+mb)*f.IPUs+ipu]
}

// runs reports whether IPU k runs micro-step i.
func (f *Frame) runs(i, k int) bool { return f.Owner == nil || f.Owner[i] == k }

// StepNanos returns micro-step i's measured time: its span under the
// barrier loop (kernels plus barrier wait), otherwise the sum of its
// kernel cells over the batch's micro-batches.
func (f *Frame) StepNanos(i int) int64 {
	if f.Spans != nil {
		return f.Spans[i].Dur
	}
	var ns int64
	for j := 0; j < f.Micro; j++ {
		for k := 0; k < f.IPUs; k++ {
			if f.runs(i, k) {
				ns += f.Cell(i, j, k).Dur
			}
		}
	}
	return ns
}

// ComputeNanos returns IPU k's summed kernel time over the batch.
func (f *Frame) ComputeNanos(k int) int64 {
	var ns int64
	for i := 0; i < f.Steps; i++ {
		if !f.runs(i, k) {
			continue
		}
		for j := 0; j < f.Micro; j++ {
			ns += f.Cell(i, j, k).Dur
		}
	}
	return ns
}

// stage returns the first and last micro-step pipeline stage k runs
// (-1, -1 when it runs none).
func (f *Frame) stage(k int) (first, last int) {
	first, last = -1, -1
	for i, o := range f.Owner {
		if o == k {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	return first, last
}

// appendEvents derives the batch's timeline from the frame and appends
// it to dst: for each IPU in turn, its non-empty kernel cells in
// execution order as compute events, with every gap before, between and
// after them labelled, so each IPU's events tile [0, Wall]. A gap is
// labelled by what the IPU waits on:
//
//   - a pipeline stage's wait for its first input (fill) and its idle
//     tail after its last output (drain) are bubble;
//   - a wait on a step or stage boundary the cost model prices IPU-Link
//     exchange into is exchange;
//   - any other wait is barrier_wait.
//
// Under the barrier loop a gap waits on the previous step's barrier. A
// wavefront stage waits on its inbound boundary before each micro-batch
// (stage 0 on its outbound handoff slot instead). An IPU's wait for its
// first kernel with no stage upstream is host dispatch: barrier_wait.
// m supplies the exchange pricing; nil prices none.
func appendEvents(dst []Event, f *Frame, m *Meta) []Event {
	wave := f.Owner != nil
	for k := 0; k < f.IPUs; k++ {
		first, last := 0, f.Steps-1
		if wave {
			if first, last = f.stage(k); first < 0 {
				continue
			}
		}
		var cur int64
		for j := 0; j < f.Micro; j++ {
			for i := first; i <= last; i++ {
				c := f.Cell(i, j, k)
				if d := c.Start - cur; d > 0 {
					ph, s := m.waitPhase(i-1), i-1
					if i == first {
						switch {
						case !wave, k == 0 && j == 0:
							ph, s = BarrierWait, i
						case k == 0:
							ph, s = m.waitPhase(last), last
						case j == 0:
							ph, s = Bubble, first-1
						default:
							ph, s = m.waitPhase(first-1), first-1
						}
					}
					dst = append(dst, Event{Step: int32(s), IPU: int32(k), Phase: ph, MB: int32(j), StartNanos: cur, DurNanos: d})
				}
				if c.Dur > 0 {
					dst = append(dst, Event{Step: int32(i), IPU: int32(k), Phase: Compute, MB: int32(j), StartNanos: c.Start, DurNanos: c.Dur})
				}
				cur = c.Start + c.Dur
			}
		}
		if d := f.Wall - cur; d > 0 {
			ph, s := m.waitPhase(last), last
			if wave && k < f.IPUs-1 {
				ph, s = Bubble, last+1
			}
			dst = append(dst, Event{Step: int32(s), IPU: int32(k), Phase: ph, MB: int32(f.Micro - 1), StartNanos: cur, DurNanos: d})
		}
	}
	return dst
}

// batch is one sampled batch's derived timeline, recycled through the
// recorder's ring.
type batch struct {
	id     uint64
	start  time.Time
	rows   int
	steps  int
	micro  int
	tracks int
	wall   int64
	events []Event
}

// Meta is the static description of the executor whose batches a
// recorder samples: per-micro-step names, kernel families, variants and
// the cost model's per-row modelled phase seconds. Set once (first
// executor wins — step layout is stable per model) and attached to
// every snapshot, so events stay index-only and allocation-free.
type Meta struct {
	Model    string   `json:"model"`
	Strategy string   `json:"strategy"`
	Shards   int      `json:"shards"`
	Steps    []string `json:"steps"`
	Kernels  []string `json:"kernels,omitempty"`
	Variants []string `json:"variants,omitempty"`

	// MicroBatches is the wavefront width a pipeline executor splits a
	// full batch into (0 outside the wavefront). Descriptive only — each
	// sampled batch carries its own effective micro count.
	MicroBatches int `json:"micro_batches,omitempty"`

	// Modelled per-row seconds of each micro-step, split by phase: what
	// the cost model says one row of compute (per shard, under the
	// strategy) and exchange should cost. Multiplied by a batch's rows,
	// these are the modelled counterparts the summary and the Chrome
	// args line up against the measured spans. Nil when the executor has
	// no cost model.
	ComputeSecPerRow  []float64 `json:"compute_s_per_row,omitempty"`
	ExchangeSecPerRow []float64 `json:"exchange_s_per_row,omitempty"`
}

// StepName returns the micro-step's name, or a stable placeholder when
// the meta does not cover it.
func (m *Meta) StepName(i int) string {
	if m != nil && i >= 0 && i < len(m.Steps) {
		return m.Steps[i]
	}
	return "step"
}

func (m *Meta) kernel(i int) string {
	if m != nil && i >= 0 && i < len(m.Kernels) {
		return m.Kernels[i]
	}
	return ""
}

func (m *Meta) variant(i int) string {
	if m != nil && i >= 0 && i < len(m.Variants) {
		return m.Variants[i]
	}
	return ""
}

// waitPhase labels a wait on micro-step s: exchange when the cost model
// prices IPU-Link traffic into it, barrier_wait otherwise.
func (m *Meta) waitPhase(s int) Phase {
	if m != nil && s >= 0 && s < len(m.ExchangeSecPerRow) && m.ExchangeSecPerRow[s] > 0 {
		return Exchange
	}
	return BarrierWait
}

// microRows returns the row count of micro-batch mb when rows are split
// into micro contiguous chunks the way the wavefront executor splits
// them (chunk k covers rows [k*rows/micro, (k+1)*rows/micro)).
func microRows(rows, micro int, mb int32) int {
	if micro <= 1 {
		return rows
	}
	lo := int(mb) * rows / micro
	hi := (int(mb) + 1) * rows / micro
	return hi - lo
}

// modelledNanos prices one event under the meta's cost model: compute
// events by the step's per-row compute, exchange events by its per-row
// exchange, scaled to the event's micro-batch rows. 0 for bubbles,
// barrier waits and unpriced steps.
func (m *Meta) modelledNanos(ev Event, rows, micro int) float64 {
	if m == nil {
		return 0
	}
	i := int(ev.Step)
	n := microRows(rows, micro, ev.MB)
	switch ev.Phase {
	case Compute:
		if i < len(m.ComputeSecPerRow) {
			return m.ComputeSecPerRow[i] * float64(n) * 1e9
		}
	case Exchange:
		if i < len(m.ExchangeSecPerRow) {
			return m.ExchangeSecPerRow[i] * float64(n) * 1e9
		}
	}
	return 0
}

// BatchRecord is the detached, JSON-ready copy of one recorded batch
// that Snapshot hands out (safe to hold after the pooled original is
// recycled). Events are grouped by IPU, each IPU's in time order, and
// tile [0, WallNanos].
type BatchRecord struct {
	ID        uint64    `json:"id"`
	Start     time.Time `json:"start"`
	Rows      int       `json:"rows"`
	Steps     int       `json:"steps"`
	Micro     int       `json:"micro,omitempty"`
	Tracks    int       `json:"tracks"`
	WallNanos int64     `json:"wall_ns"`
	Events    []Event   `json:"events"`
}

// Recorder samples one executed batch in every sampleEvery, derives its
// timeline from the batch's frame into a recycled event buffer, and keeps
// the last keep batches in a ring for /debug/timeline. Only Record on a
// sampled batch and the read side take the ring mutex.
type Recorder struct {
	every uint64
	seq   atomic.Uint64
	ids   atomic.Uint64
	meta  atomic.Pointer[Meta]

	mu   sync.Mutex
	ring []*batch
	next int
	n    int
	// free holds batches the ring evicted, for the next sampled batch to
	// derive into: unlike a sync.Pool, nothing empties it behind the
	// recorder's back, so steady-state recording never allocates.
	free []*batch

	// Accumulated phase totals over every recorded batch: measured
	// nanos per (IPU, phase), and the cost model's priced counterpart.
	// Guarded by mu; read back by Totals/PhaseSeconds/BubbleFraction.
	batches  int64
	rows     int64
	perIPU   [][numPhases]int64
	modelled [numPhases]float64
}

// NewRecorder creates a recorder sampling one batch per sampleEvery
// (minimum 1 = every batch) and retaining the last keep batches.
func NewRecorder(sampleEvery, keep int) *Recorder {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	if keep < 1 {
		keep = 1
	}
	return &Recorder{every: uint64(sampleEvery), ring: make([]*batch, keep)}
}

// SampleEvery returns the sampling period.
func (r *Recorder) SampleEvery() int {
	if r == nil {
		return 0
	}
	return int(r.every)
}

// SetMeta installs the executor description once; later calls are
// no-ops (the first executor to describe itself wins, and step layout
// is identical across a model's batch buckets).
func (r *Recorder) SetMeta(m *Meta) {
	if r == nil || m == nil {
		return
	}
	r.meta.CompareAndSwap(nil, m)
}

// Meta returns the installed executor description, or nil.
func (r *Recorder) Meta() *Meta {
	if r == nil {
		return nil
	}
	return r.meta.Load()
}

// Record counts one executed batch and, when it falls on the sampling
// grid, derives its timeline from the frame (appendEvents under the
// installed meta), adds it to the phase totals and enters it into the
// last-N ring, recycling whatever it evicts. Off the grid — the common
// case — it costs one atomic add. The frame is only read, and only
// during the call.
func (r *Recorder) Record(f *Frame) {
	if r == nil || r.seq.Add(1)%r.every != 0 {
		return
	}
	meta := r.meta.Load()
	var b *batch
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		b, r.free = r.free[n-1], r.free[:n-1]
	}
	r.mu.Unlock()
	if b == nil {
		b = new(batch)
	}
	b.id = r.ids.Add(1)
	b.start, b.wall = f.Start, f.Wall
	b.rows, b.steps, b.micro, b.tracks = f.Rows, f.Steps, f.Micro, f.IPUs
	// Each IPU contributes at most one gap per kernel cell plus its tail.
	if need := 2*f.Steps*f.Micro*f.IPUs + f.IPUs; cap(b.events) < need {
		b.events = make([]Event, 0, need)
	}
	b.events = appendEvents(b.events[:0], f, meta)

	r.mu.Lock()
	r.batches++
	r.rows += int64(b.rows)
	if len(r.perIPU) < b.tracks {
		grown := make([][numPhases]int64, b.tracks)
		copy(grown, r.perIPU)
		r.perIPU = grown
	}
	for _, ev := range b.events {
		r.perIPU[ev.IPU][ev.Phase.index()] += ev.DurNanos
		r.modelled[ev.Phase.index()] += meta.modelledNanos(ev, b.rows, b.micro) / 1e9
	}
	if old := r.ring[r.next]; old != nil {
		r.free = append(r.free, old)
	}
	r.ring[r.next] = b
	r.next = (r.next + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.mu.Unlock()
}

// Snapshot returns detached copies of the retained batches, oldest
// first.
func (r *Recorder) Snapshot() []BatchRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]BatchRecord, 0, r.n)
	for i := 0; i < r.n; i++ {
		b := r.ring[(r.next-r.n+i+len(r.ring))%len(r.ring)]
		out = append(out, BatchRecord{
			ID: b.id, Start: b.start, Rows: b.rows,
			Steps: b.steps, Micro: b.micro, Tracks: b.tracks, WallNanos: b.wall,
			Events: append(make([]Event, 0, len(b.events)), b.events...),
		})
	}
	return out
}

// IPUPhaseSeconds is one modelled IPU's accumulated measured phase time
// over the recorder's sampled batches.
type IPUPhaseSeconds struct {
	Compute  float64 `json:"compute_s"`
	Exchange float64 `json:"exchange_s"`
	Barrier  float64 `json:"barrier_s"`
	Bubble   float64 `json:"bubble_s"`
}

// Total returns the IPU's summed phase time — its sampled wall.
func (s IPUPhaseSeconds) Total() float64 {
	return s.Compute + s.Exchange + s.Barrier + s.Bubble
}

// Totals is the recorder's accumulated phase accounting: measured
// seconds per (IPU, phase) and the cost model's modelled counterpart,
// over every sampled batch since the recorder was created.
type Totals struct {
	Batches int64             `json:"batches"`
	Rows    int64             `json:"rows"`
	PerIPU  []IPUPhaseSeconds `json:"per_ipu"`

	// Modelled compute/exchange seconds the cost model priced the same
	// batches at (per participating IPU, summed over IPUs). Barrier and
	// bubble have no modelled counterpart — they are exactly what the
	// analytic model assumes away.
	ModelledCompute  float64 `json:"modelled_compute_s"`
	ModelledExchange float64 `json:"modelled_exchange_s"`
}

// Totals snapshots the accumulated phase accounting.
func (r *Recorder) Totals() Totals {
	if r == nil {
		return Totals{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := Totals{
		Batches: r.batches, Rows: r.rows,
		PerIPU:           make([]IPUPhaseSeconds, len(r.perIPU)),
		ModelledCompute:  r.modelled[Compute.index()],
		ModelledExchange: r.modelled[Exchange.index()],
	}
	for i, acc := range r.perIPU {
		t.PerIPU[i] = IPUPhaseSeconds{
			Compute:  float64(acc[Compute.index()]) / 1e9,
			Exchange: float64(acc[Exchange.index()]) / 1e9,
			Barrier:  float64(acc[BarrierWait.index()]) / 1e9,
			Bubble:   float64(acc[Bubble.index()]) / 1e9,
		}
	}
	return t
}

// PhaseSeconds returns one (IPU, phase) cell of the accumulated
// measured totals — the scrape-time reader behind the
// ipuserve_phase_seconds gauges.
func (r *Recorder) PhaseSeconds(ipu int, p Phase) float64 {
	if r == nil || p == phaseInvalid {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ipu < 0 || ipu >= len(r.perIPU) {
		return 0
	}
	return float64(r.perIPU[ipu][p.index()]) / 1e9
}

// BubbleFraction returns the share of all sampled per-IPU wall spent in
// pipeline bubbles (0 when nothing is recorded). Sampling scale cancels
// in the ratio, so this is an unbiased estimate of the true fraction.
func (r *Recorder) BubbleFraction() float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var bubble, total int64
	for _, acc := range r.perIPU {
		for pi := 0; pi < numPhases; pi++ {
			total += acc[pi]
		}
		bubble += acc[Bubble.index()]
	}
	if total == 0 {
		return 0
	}
	return float64(bubble) / float64(total)
}
