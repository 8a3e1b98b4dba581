// Package ipu implements a behavioural model of the Graphcore IPU in the
// style of the Poplar stack: programs are dataflow graphs of variables and
// vertices grouped into compute sets, a compiler places data and code onto
// tiles and plans exchange, and a BSP engine charges cycles for the
// compute / sync / exchange phases.
//
// The model reproduces the structural properties the paper's analysis
// rests on:
//
//   - Observation 1: exchange cost depends on message size, never on the
//     distance between tiles.
//   - Observation 3: total memory is the data footprint *plus*
//     compiler-generated overhead (vertex descriptors, edge pointers,
//     exchange code, control code) that grows with the number of compute
//     sets, vertices and edges.
//   - The AMP (Accumulating Matrix Product) units accelerate dense matmul
//     only; irregular codelets run on the scalar/SIMD path, which is why
//     torch.nn.Linear gets disproportionate hardware help (Section 4.1).
//
// Absolute times are model times derived from the GC200 datasheet numbers
// in Table 1 plus calibration constants documented on Config.
package ipu

// ComputeClass selects the execution path (and thus per-cycle throughput)
// of a vertex.
type ComputeClass int

const (
	// ClassAMP is the dense matmul path through the Accumulating Matrix
	// Product units.
	ClassAMP ComputeClass = iota
	// ClassSIMD is the vectorized float32 pipeline (butterfly stages,
	// block-sparse kernels, elementwise ops).
	ClassSIMD
	// ClassScalar is an unvectorized inner loop (the "IPU naive" matmul).
	ClassScalar
	// ClassCopy moves bytes without arithmetic (rearrangement vertices).
	ClassCopy
)

func (c ComputeClass) String() string {
	switch c {
	case ClassAMP:
		return "amp"
	case ClassSIMD:
		return "simd"
	case ClassScalar:
		return "scalar"
	case ClassCopy:
		return "copy"
	default:
		return "unknown"
	}
}

// Config describes an IPU processor for the machine model. Bandwidth and
// throughput figures derive from Table 1 of the paper and Jia et al.
// (arXiv:1912.03413); the remaining constants are calibration values and
// are documented as such.
type Config struct {
	Name           string
	Tiles          int // IPU-Tiles
	TileMemBytes   int // In-Processor-Memory per tile
	ThreadsPerTile int // hardware worker threads (time-sliced)
	ClockHz        float64

	// Per-tile per-cycle throughput of each compute class (FP32 flops, or
	// bytes for ClassCopy).
	AMPFlopsPerTileCycle    float64
	SIMDFlopsPerTileCycle   float64
	ScalarFlopsPerTileCycle float64
	CopyBytesPerTileCycle   float64

	// Exchange fabric: per-tile receive bandwidth and the fixed costs of a
	// BSP step. Exchange cost is a function of bytes only — Observation 1.
	ExchangeBytesPerTileCycle float64
	SyncCycles                float64 // per BSP superstep
	ExchangeSetupCycles       float64 // per exchange phase

	// Memory-model constants (compiler overhead per object). These drive
	// Fig. 5's super-linear memory growth.
	VertexDescriptorBytes   int     // per vertex instance
	EdgeBytes               int     // per vertex<->variable edge
	CodeletCodeBytes        int     // per distinct codelet resident on a tile
	CSControlBytes          int     // per compute set of control code per tile
	ExchangeCodeBytesPerMsg int     // per exchange message endpoint
	ExchangeCodePerByte     float64 // marginal exchange code per payload byte

	// Per-vertex launch overhead charged to the issuing tile.
	VertexOverheadCycles float64

	// StreamBufferBytes caps the per-tile exchange landing buffer: inputs
	// larger than this are exchanged in rounds through a double buffer
	// (poplibs plans bound landing memory the same way). Exchange *time*
	// still scales with total bytes; only resident memory is capped.
	StreamBufferBytes int
}

// GC200 returns the model of the second-generation IPU used in the paper
// (M2000 Pod-4 restricted to one processor, as in Section 3).
//
// Derivations from Table 1:
//   - 62.5 TFLOP/s FP32 peak = 1472 tiles × 32 flops/cycle × 1.325 GHz.
//   - 900 MB on-chip = 1472 × 624 KiB.
//   - 47.5 TB/s on-chip bandwidth ≈ tile-local loads; the all-to-all
//     exchange sustains ~8 bytes/cycle/tile (≈15.6 TB/s aggregate,
//     matching Jia et al.'s measurements).
//   - Off-chip (host) 20 GB/s; PopTorch sustains only a fraction — the
//     6 GB/s effective value is calibrated so PopTorch dense matmul lands
//     near Table 2's 1677 GFLOP/s.
func GC200() Config {
	return Config{
		Name:           "GC200",
		Tiles:          1472,
		TileMemBytes:   624 * 1024,
		ThreadsPerTile: 6,
		ClockHz:        1.325e9,

		AMPFlopsPerTileCycle:    32,
		SIMDFlopsPerTileCycle:   4,
		ScalarFlopsPerTileCycle: 1.0 / 3, // ~6 cycles per multiply-add
		CopyBytesPerTileCycle:   8,

		ExchangeBytesPerTileCycle: 8,
		SyncCycles:                400,
		ExchangeSetupCycles:       200,

		VertexDescriptorBytes:   32,
		EdgeBytes:               8,
		CodeletCodeBytes:        256,
		CSControlBytes:          16,
		ExchangeCodeBytesPerMsg: 24,
		ExchangeCodePerByte:     0.02,

		VertexOverheadCycles: 20,

		StreamBufferBytes: 48 * 1024,
	}
}

// GC2 returns the first-generation IPU (for completeness; earlier related
// work characterized this part).
func GC2() Config {
	c := GC200()
	c.Name = "GC2"
	c.Tiles = 1216
	c.TileMemBytes = 256 * 1024
	c.ClockHz = 1.6e9
	c.AMPFlopsPerTileCycle = 16
	return c
}

// PeakFlops returns the dense FP32 peak in FLOP/s.
func (c Config) PeakFlops() float64 {
	return float64(c.Tiles) * c.AMPFlopsPerTileCycle * c.ClockHz
}

// TotalMemBytes returns the aggregate In-Processor-Memory.
func (c Config) TotalMemBytes() int { return c.Tiles * c.TileMemBytes }

// ExchangeAggregateBytesPerSec returns the all-to-all exchange bandwidth.
func (c Config) ExchangeAggregateBytesPerSec() float64 {
	return float64(c.Tiles) * c.ExchangeBytesPerTileCycle * c.ClockHz
}

// ClassRate returns per-tile per-cycle throughput for a compute class
// (flops, or bytes for ClassCopy).
func (c Config) ClassRate(cl ComputeClass) float64 {
	switch cl {
	case ClassAMP:
		return c.AMPFlopsPerTileCycle
	case ClassSIMD:
		return c.SIMDFlopsPerTileCycle
	case ClassScalar:
		return c.ScalarFlopsPerTileCycle
	case ClassCopy:
		return c.CopyBytesPerTileCycle
	default:
		return 1
	}
}
