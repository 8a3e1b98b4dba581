package ipu

import "fmt"

// StepCost breaks down the model time of one program step.
type StepCost struct {
	Label          string
	SyncCycles     float64
	ExchangeCycles float64
	ComputeCycles  float64
}

// Cycles returns the on-device cycles of the step.
func (s StepCost) Cycles() float64 { return s.SyncCycles + s.ExchangeCycles + s.ComputeCycles }

// ExecReport summarizes a simulated program run.
type ExecReport struct {
	Steps         []StepCost
	TotalCycles   float64
	DeviceSeconds float64
}

// Seconds returns the model time of the run on the device.
func (r ExecReport) Seconds() float64 { return r.DeviceSeconds }

// Simulate charges cycles for every program step under the BSP model:
// each executed compute set costs sync + exchange (bytes/bandwidth on the
// busiest tile) + compute (busiest tile, vertices shared across hardware
// threads).
func Simulate(c *Compiled) ExecReport { return simulate(c, 1) }

// simulate is Simulate with every AMP vertex's flops multiplied by
// ampScale before they are priced; the graph is not modified.
func simulate(c *Compiled, ampScale float64) ExecReport {
	cfg := c.Graph.Config
	rep := ExecReport{}
	work := make([]tileWork, cfg.Tiles)
	var touched []int // tiles with vertices in the current step
	for i, st := range c.Graph.Program {
		cs := c.Graph.CSs[st.CS]
		sc := StepCost{Label: st.Label, SyncCycles: cfg.SyncCycles}
		// Exchange: busiest tile's traffic over its per-tile bandwidth.
		if ex := c.exchanges[i]; ex.total > 0 {
			sc.ExchangeCycles = cfg.ExchangeSetupCycles + ex.worst/cfg.ExchangeBytesPerTileCycle
		}
		// Compute: per tile, vertices share ThreadsPerTile workers.
		for _, vx := range cs.Vertices {
			w := &work[vx.Tile]
			if w.count == 0 {
				touched = append(touched, vx.Tile)
			}
			flops := vx.Flops
			if vx.Class == ClassAMP {
				flops *= ampScale
			}
			cyc := flops/cfg.ClassRate(vx.Class) + cfg.VertexOverheadCycles
			w.sum += cyc
			w.count++
			if cyc > w.longest {
				w.longest = cyc
			}
		}
		var worstCompute float64
		for _, t := range touched {
			w := &work[t]
			busy := w.sum / float64(min(cfg.ThreadsPerTile, w.count))
			if busy < w.longest {
				busy = w.longest
			}
			if busy > worstCompute {
				worstCompute = busy
			}
			*w = tileWork{}
		}
		touched = touched[:0]
		sc.ComputeCycles = worstCompute
		rep.Steps = append(rep.Steps, sc)
		rep.TotalCycles += sc.Cycles()
	}
	rep.DeviceSeconds = rep.TotalCycles / cfg.ClockHz
	return rep
}

type tileWork struct {
	sum     float64
	longest float64
	count   int
}

// ExchangeResult is one point of the Fig. 3 microbenchmark.
type ExchangeResult struct {
	SrcTile, DstTile     int
	Bytes                int
	LatencySeconds       float64
	BandwidthBytesPerSec float64
}

// ExchangeMicrobench models a tile-to-tile copy of the given size,
// reproducing Fig. 3: the cost is sync + setup + size/bandwidth and is
// independent of the distance between the tiles (Observation 1). It
// errors when the payload cannot fit in the destination tile's memory —
// the regime where Fig. 3's premise breaks.
func ExchangeMicrobench(cfg Config, src, dst, bytes int) (ExchangeResult, error) {
	if src == dst || src < 0 || dst < 0 || src >= cfg.Tiles || dst >= cfg.Tiles {
		return ExchangeResult{}, fmt.Errorf("ipu: invalid tile pair (%d,%d)", src, dst)
	}
	if bytes <= 0 {
		return ExchangeResult{}, fmt.Errorf("ipu: invalid size %d", bytes)
	}
	if bytes > cfg.TileMemBytes {
		return ExchangeResult{}, fmt.Errorf("ipu: %d bytes exceed the %d-byte tile memory", bytes, cfg.TileMemBytes)
	}
	cycles := cfg.SyncCycles + cfg.ExchangeSetupCycles + float64(bytes)/cfg.ExchangeBytesPerTileCycle
	lat := cycles / cfg.ClockHz
	return ExchangeResult{
		SrcTile: src, DstTile: dst, Bytes: bytes,
		LatencySeconds:       lat,
		BandwidthBytesPerSec: float64(bytes) / lat,
	}, nil
}
