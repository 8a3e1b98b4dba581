package serve

import (
	"repro/internal/obs/timeline"
)

// IPUPhaseShare is one modelled IPU's row of the timeline utilization
// summary: measured seconds per BSP phase over the recorder's sampled
// batches, and each phase's share of the IPU's sampled wall.
type IPUPhaseShare struct {
	IPU     int                      `json:"ipu"`
	Seconds timeline.IPUPhaseSeconds `json:"seconds"`

	ComputePct  float64 `json:"compute_pct"`
	ExchangePct float64 `json:"exchange_pct"`
	BarrierPct  float64 `json:"barrier_pct"`
	BubblePct   float64 `json:"bubble_pct"`
}

// TimelineSummary is one model's aggregated phase-utilization view — the
// JSON body of /debug/timeline and the source of the loadgen's phase
// table and the bench snapshot's phases block.
type TimelineSummary struct {
	Model    string `json:"model"`
	Strategy string `json:"strategy,omitempty"`
	Shards   int    `json:"shards"`
	// MicroBatches is the wavefront width pipeline batches split into
	// (omitted for tensor-parallel and unsharded models).
	MicroBatches int   `json:"micro_batches,omitempty"`
	SampleEvery  int   `json:"sample_every"`
	Batches      int64 `json:"sampled_batches"`
	Rows         int64 `json:"sampled_rows"`

	PerIPU []IPUPhaseShare `json:"per_ipu"`

	// Model-wide phase shares (fraction of summed per-IPU sampled wall).
	ComputeShare   float64 `json:"compute_share"`
	ExchangeShare  float64 `json:"exchange_share"`
	BarrierShare   float64 `json:"barrier_share"`
	BubbleFraction float64 `json:"bubble_fraction"`

	// Modelled-vs-measured per phase, over the same sampled batches:
	// what the analytic cost model priced the sampled compute and
	// exchange at, next to what the host executor measured. Barrier and
	// bubble have no modelled counterpart — the analytic model assumes
	// them away, which is exactly what makes them worth recording.
	MeasuredComputeSeconds  float64 `json:"measured_compute_s"`
	ModelledComputeSeconds  float64 `json:"modelled_compute_s"`
	MeasuredExchangeSeconds float64 `json:"measured_exchange_s"`
	ModelledExchangeSeconds float64 `json:"modelled_exchange_s"`
}

// TimelineSummary aggregates the model's flight-recorder totals into the
// phase-utilization view; ok is false when timelines are disabled or no
// batch has been sampled yet.
func (m *Model) TimelineSummary() (TimelineSummary, bool) {
	rec := m.timeline
	if rec == nil {
		return TimelineSummary{}, false
	}
	tot := rec.Totals()
	if tot.Batches == 0 {
		return TimelineSummary{}, false
	}
	s := TimelineSummary{
		Model:       m.spec.Name,
		Shards:      m.shards,
		SampleEvery: rec.SampleEvery(),
		Batches:     tot.Batches,
		Rows:        tot.Rows,
		PerIPU:      make([]IPUPhaseShare, len(tot.PerIPU)),

		ModelledComputeSeconds:  tot.ModelledCompute,
		ModelledExchangeSeconds: tot.ModelledExchange,
		BubbleFraction:          rec.BubbleFraction(),
	}
	if meta := rec.Meta(); meta != nil {
		s.Strategy = meta.Strategy
		s.MicroBatches = meta.MicroBatches
	}
	var all, compute, exchange, barrier float64
	for i, ps := range tot.PerIPU {
		row := IPUPhaseShare{IPU: i, Seconds: ps}
		if t := ps.Total(); t > 0 {
			row.ComputePct = 100 * ps.Compute / t
			row.ExchangePct = 100 * ps.Exchange / t
			row.BarrierPct = 100 * ps.Barrier / t
			row.BubblePct = 100 * ps.Bubble / t
		}
		s.PerIPU[i] = row
		all += ps.Total()
		compute += ps.Compute
		exchange += ps.Exchange
		barrier += ps.Barrier
	}
	s.MeasuredComputeSeconds = compute
	s.MeasuredExchangeSeconds = exchange
	if all > 0 {
		s.ComputeShare = compute / all
		s.ExchangeShare = exchange / all
		s.BarrierShare = barrier / all
	}
	return s, true
}

// TimelineProcess packages the model's retained batch timelines for
// Chrome trace export; ok is false when there is nothing to export.
func (m *Model) TimelineProcess() (timeline.ChromeProcess, bool) {
	rec := m.timeline
	if rec == nil {
		return timeline.ChromeProcess{}, false
	}
	batches := rec.Snapshot()
	if len(batches) == 0 {
		return timeline.ChromeProcess{}, false
	}
	return timeline.ChromeProcess{Name: m.spec.Name, Meta: rec.Meta(), Batches: batches}, true
}
