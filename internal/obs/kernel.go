package obs

// Kernel names one Into/epilogue kernel family of the execution stack —
// the attribution axis of the per-kernel performance accounting. The
// enum is closed on purpose: a fixed, small set of families keeps the
// sink a flat array of striped counters (no map, no lock on the hot
// path) and keeps the /metrics label set bounded.
type Kernel uint8

const (
	// KernelMatMul covers the dense MatMulInto / packed matmul
	// kernels (Dense layers, FactorizedDense factor products).
	KernelMatMul Kernel = iota
	// KernelButterfly covers the butterfly factor sweeps
	// (applyFactorRows and the fused epilogue variant).
	KernelButterfly
	// KernelFWHT covers the fast Walsh–Hadamard passes (fastfood).
	KernelFWHT
	// KernelFFT covers the FFT circular-convolution kernels (circulant).
	KernelFFT
	// KernelBSR covers the block-sparse-row multiplies (pixelfly).
	KernelBSR
	// KernelLowRank covers the low-rank U/V projection kernels.
	KernelLowRank
	// KernelOther is everything the stack cannot attribute to a single
	// family: standalone activations.
	KernelOther

	numKernels
)

var kernelNames = [numKernels]string{
	KernelMatMul:    "matmul",
	KernelButterfly: "butterfly",
	KernelFWHT:      "fwht",
	KernelFFT:       "fft",
	KernelBSR:       "bsr",
	KernelLowRank:   "lowrank",
	KernelOther:     "other",
}

func (k Kernel) String() string {
	if int(k) < len(kernelNames) {
		return kernelNames[k]
	}
	return "other"
}

// Kernels enumerates every kernel family, in stable order — the
// iteration axis for tables and metric registration.
func Kernels() []Kernel {
	out := make([]Kernel, numKernels)
	for i := range out {
		out[i] = Kernel(i)
	}
	return out
}

// kernelFamily is one family's accumulators. All four are striped
// counters, so concurrent plan executions (one per batcher worker)
// record without contending on a shared cache line.
type kernelFamily struct {
	flops Counter
	bytes Counter
	nanos Counter
	calls Counter
}

// KernelStats is the per-kernel performance-accounting sink: every
// executed plan step reports its kernel family, flop count, arena
// bytes moved and measured wall time here. Recording is a few striped
// atomic adds — no locks, no allocations — so a plan with the sink
// enabled stays on the serving path's steady-state allocation budget.
//
// One sink is typically shared by every model of a serving registry
// (attribution is by kernel family, not by model; per-model timing
// already exists per step), and exported on /metrics via Export.
type KernelStats struct {
	fam [numKernels]kernelFamily
}

// NewKernelStats creates an empty sink.
func NewKernelStats() *KernelStats {
	return &KernelStats{}
}

// Record accounts one kernel execution: flops performed, activation-
// arena bytes moved, and measured nanoseconds. Safe for concurrent use;
// allocation-free. A nil receiver is a no-op so callers can keep one
// unconditional call site.
func (s *KernelStats) Record(k Kernel, flops, bytes, nanos int64) {
	if s == nil {
		return
	}
	if int(k) >= int(numKernels) {
		k = KernelOther
	}
	f := &s.fam[k]
	f.flops.Add(flops)
	f.bytes.Add(bytes)
	f.nanos.Add(nanos)
	f.calls.Inc()
}

// KernelSnapshot is the detached per-family view Snapshot hands out —
// cumulative totals plus the derived throughput rates (flops/ns is
// GFLOP/s exactly; bytes are scaled to bytes/s).
type KernelSnapshot struct {
	Kernel string `json:"kernel"`
	Calls  int64  `json:"calls"`
	Flops  int64  `json:"flops"`
	Bytes  int64  `json:"arena_bytes"`
	Nanos  int64  `json:"nanos"`

	GFlopsPerSec float64 `json:"gflops_per_sec"`
	BytesPerSec  float64 `json:"bytes_per_sec"`
}

// Snapshot returns the families that have recorded at least one call,
// in enum order.
func (s *KernelStats) Snapshot() []KernelSnapshot {
	if s == nil {
		return nil
	}
	var out []KernelSnapshot
	for k := Kernel(0); k < numKernels; k++ {
		f := &s.fam[k]
		calls := f.calls.Value()
		if calls == 0 {
			continue
		}
		snap := KernelSnapshot{
			Kernel: k.String(),
			Calls:  calls,
			Flops:  f.flops.Value(),
			Bytes:  f.bytes.Value(),
			Nanos:  f.nanos.Value(),
		}
		if snap.Nanos > 0 {
			snap.GFlopsPerSec = float64(snap.Flops) / float64(snap.Nanos)
			snap.BytesPerSec = float64(snap.Bytes) / float64(snap.Nanos) * 1e9
		}
		out = append(out, snap)
	}
	return out
}

// Export registers one cumulative-rate gauge pair per kernel family on
// the registry: gflopsFamily{kernel=...} (GFLOP/s) and
// bytesFamily{kernel=...} (arena bytes/s), both computed at scrape time
// from the sink's totals. Families that have not recorded yet read 0.
func (s *KernelStats) Export(reg *Registry, gflopsFamily, bytesFamily string) {
	for _, k := range Kernels() {
		f := &s.fam[k]
		l := L{Key: "kernel", Value: k.String()}
		reg.GaugeFunc(gflopsFamily, func() float64 {
			n := f.nanos.Value()
			if n == 0 {
				return 0
			}
			return float64(f.flops.Value()) / float64(n)
		}, l)
		reg.GaugeFunc(bytesFamily, func() float64 {
			n := f.nanos.Value()
			if n == 0 {
				return 0
			}
			return float64(f.bytes.Value()) / float64(n) * 1e9
		}, l)
	}
}
