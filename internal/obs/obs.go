// Package obs is the dependency-free observability layer of the serving
// stack: sharded atomic counters, gauges and log-bucketed histograms that
// are mutex-free on the hot path, a registry that renders them in the
// Prometheus text exposition format, and a sampling per-request tracer
// with a bounded ring of recent traces.
//
// The design constraints come from the serving pipeline it instruments
// (batcher → bucket program → compiled plan → sharded execution):
//
//   - recording a metric at steady state must not allocate and must not
//     take a lock — counters stripe across cache lines, gauges are one
//     atomic word, histograms are fixed atomic bucket arrays;
//   - instruments are created once at registration time (model install,
//     cache construction) and held by pointer, so the hot path never
//     performs a name lookup;
//   - scraping is the slow path: /metrics walks the registry under a
//     mutex and evaluates Func instruments, which may themselves take
//     locks (they read serving-side state).
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// L is one metric label: a key/value pair. Labels are part of a metric's
// identity — the same family name with different labels is a different
// time series.
type L struct{ Key, Value string }

// counterStripes is the number of cache-line-padded shards a Counter
// spreads its increments over. Power of two so the index is a mask.
const counterStripes = 16

type counterStripe struct {
	n atomic.Int64
	_ [64 - 8]byte // pad to a cache line so stripes don't false-share
}

// Counter is a monotonically increasing counter, striped across cache
// lines so concurrent hot-path increments from many goroutines don't
// contend on a single word. Add is lock-free and allocation-free; Value
// sums the stripes (scrape path).
type Counter struct {
	stripes [counterStripes]counterStripe
}

// stripeIndex spreads goroutines across stripes using the address of a
// stack variable: distinct goroutines run on distinct stacks, so the high
// bits of a stack address are a cheap, allocation-free shard key that is
// stable for one goroutine (its increments stay on one cache line).
func stripeIndex() int {
	var b byte
	return int((uintptr(unsafe.Pointer(&b)) >> 10) & (counterStripes - 1))
}

// Add increments the counter by n (n must be non-negative to keep the
// Prometheus counter contract; this is not checked on the hot path).
func (c *Counter) Add(n int64) { c.stripes[stripeIndex()].n.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total across all stripes.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.stripes {
		t += c.stripes[i].n.Load()
	}
	return t
}

// Gauge is a settable float64 metric stored as one atomic word.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind tags what a registry entry holds.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// typeName is the Prometheus TYPE keyword for the kind.
func (k metricKind) typeName() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// metric is one registered time series.
type metric struct {
	family string
	labels []L // sorted by key
	kind   metricKind

	c  *Counter
	g  *Gauge
	h  *Histogram
	cf func() int64
	gf func() float64
}

// Registry holds named metrics and renders them for scraping. All
// methods are safe for concurrent use; creation methods are idempotent —
// asking for an existing (family, labels) series returns the same
// instrument, so a re-registered model keeps accumulating into its
// series.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	help    map[string]string
}

// NewRegistry creates an empty metric registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}, help: map[string]string{}}
}

// Help attaches a HELP string to a metric family, shown once per family
// in the exposition.
func (r *Registry) Help(family, text string) {
	r.mu.Lock()
	r.help[family] = text
	r.mu.Unlock()
}

// Counter returns the counter registered under (family, labels), creating
// it on first use.
func (r *Registry) Counter(family string, labels ...L) *Counter {
	return r.intern(family, labels, kindCounter, func(m *metric) {
		if m.c == nil {
			m.c = &Counter{}
		}
	}).c
}

// Gauge returns the gauge registered under (family, labels), creating it
// on first use.
func (r *Registry) Gauge(family string, labels ...L) *Gauge {
	return r.intern(family, labels, kindGauge, func(m *metric) {
		if m.g == nil {
			m.g = &Gauge{}
		}
	}).g
}

// Histogram returns the histogram registered under (family, labels),
// creating it with the given bucket upper bounds on first use (an
// existing series keeps its original bounds).
func (r *Registry) Histogram(family string, bounds []float64, labels ...L) *Histogram {
	return r.intern(family, labels, kindHistogram, func(m *metric) {
		if m.h == nil {
			m.h = NewHistogram(bounds)
		}
	}).h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the hook that exposes pre-existing serving-side atomics without
// double bookkeeping. Re-registering replaces the function (a replaced
// model installs a fresh closure over its new state).
func (r *Registry) CounterFunc(family string, fn func() int64, labels ...L) {
	r.intern(family, labels, kindCounterFunc, func(m *metric) { m.cf = fn })
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
// Re-registering replaces the function.
func (r *Registry) GaugeFunc(family string, fn func() float64, labels ...L) {
	r.intern(family, labels, kindGaugeFunc, func(m *metric) { m.gf = fn })
}

// DropLabeled removes every series carrying the given label pair — how
// the serving registry retires a removed model's series (and the stale
// Func closures over its state) in one sweep.
func (r *Registry) DropLabeled(key, value string) {
	r.mu.Lock()
	for k, m := range r.metrics {
		for _, l := range m.labels {
			if l.Key == key && l.Value == value {
				delete(r.metrics, k)
				break
			}
		}
	}
	r.mu.Unlock()
}

// intern returns the registry entry for (family, labels), creating it if
// absent, and sets its instrument with set under the registry lock, so
// an entry is never seen without one and two callers that create the
// same series at once share it. An existing entry of a different kind is
// replaced — last registration wins, so a redeploy that changes an
// instrument's kind doesn't export a stale series.
func (r *Registry) intern(family string, labels []L, kind metricKind, set func(*metric)) *metric {
	ls := sortedLabels(labels)
	key := seriesKey(family, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[key]
	if !ok || m.kind != kind {
		m = &metric{family: family, labels: ls, kind: kind}
		r.metrics[key] = m
	}
	set(m)
	return m
}

// sortedLabels returns a copy of labels sorted by key (canonical series
// identity and exposition order).
func sortedLabels(labels []L) []L {
	ls := append([]L(nil), labels...)
	for i := 1; i < len(ls); i++ { // insertion sort: label sets are tiny
		for j := i; j > 0 && ls[j].Key < ls[j-1].Key; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	return ls
}
