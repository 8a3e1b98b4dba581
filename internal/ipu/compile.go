package ipu

import (
	"fmt"
	"sort"
)

// MemoryBreakdown classifies the bytes on a tile (or the whole device).
// The paper's Observation 3 — memory usage beyond the raw data footprint —
// corresponds to every field except Variables.
type MemoryBreakdown struct {
	Variables      int // tensor payloads
	VertexState    int // vertex descriptors
	EdgePointers   int // vertex<->variable edges
	CodeletCode    int // codelet instruction footprint
	ControlCode    int // per-compute-set control program
	ExchangeCode   int // compiler-generated exchange sequences
	ExchangeBuffer int // landing buffers for incoming exchange data
}

// Total sums all categories.
func (m MemoryBreakdown) Total() int {
	return m.Variables + m.VertexState + m.EdgePointers + m.CodeletCode +
		m.ControlCode + m.ExchangeCode + m.ExchangeBuffer
}

func (m *MemoryBreakdown) add(o MemoryBreakdown) {
	m.Variables += o.Variables
	m.VertexState += o.VertexState
	m.EdgePointers += o.EdgePointers
	m.CodeletCode += o.CodeletCode
	m.ControlCode += o.ControlCode
	m.ExchangeCode += o.ExchangeCode
	m.ExchangeBuffer += o.ExchangeBuffer
}

// stepExchange is the planned exchange preceding one executed compute set.
type stepExchange struct {
	// inBytes[t] is the payload tile t receives; msgs[t] the number of
	// distinct source regions it receives (message count drives exchange
	// code size).
	inBytes  map[int]float64
	outBytes map[int]float64
	msgs     map[int]int
	total    float64
}

// Compiled is the result of Compile: placement, exchange plan and memory
// accounting, ready for the cost engine.
type Compiled struct {
	Graph *Graph

	// Exchange plans indexed by program step (nil for host steps).
	exchanges []*stepExchange

	// Memory accounting.
	PerTile   []MemoryBreakdown
	Device    MemoryBreakdown
	PeakTile  int // index of the fullest tile
	PeakBytes int

	// Graph statistics (Fig. 5 / Fig. 7 counters).
	NumVariables   int
	NumVertices    int
	NumEdges       int
	NumComputeSets int // distinct compute sets executed by the program
}

// OOMError reports a tile exceeding its In-Processor-Memory, mirroring
// Poplar's compile-time allocation failures.
type OOMError struct {
	Tile      int
	Need      int
	Available int
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("ipu: tile %d needs %d bytes of %d available (out of memory)",
		e.Tile, e.Need, e.Available)
}

// Compile places variables (defaulting to linear mappings), plans exchange
// for every executed compute set, and accounts memory per tile. It fails
// with *OOMError when any tile exceeds its memory.
func Compile(g *Graph) (*Compiled, error) {
	cfg := g.Config
	for _, v := range g.Vars {
		if v.Mapping == nil {
			v.Mapping = LinearMapping(cfg, v.Elems)
		}
	}

	c := &Compiled{Graph: g,
		PerTile:      make([]MemoryBreakdown, cfg.Tiles),
		NumVariables: len(g.Vars),
		NumVertices:  g.NumVertices(),
		NumEdges:     g.NumEdges(),
	}
	seen := map[ComputeSetID]bool{}
	for _, st := range g.Program {
		if !seen[st.CS] {
			seen[st.CS] = true
			c.NumComputeSets++
		}
	}

	// Variable payload per tile.
	for _, v := range g.Vars {
		for _, iv := range v.Mapping {
			c.PerTile[iv.Tile].Variables += (iv.End - iv.Start) * v.ElemBytes
		}
	}

	// Vertex state, edges and codelet code per tile.
	codeletsOnTile := map[int]map[string]bool{}
	for _, cs := range g.CSs {
		for _, vx := range cs.Vertices {
			mb := &c.PerTile[vx.Tile]
			mb.VertexState += cfg.VertexDescriptorBytes
			mb.EdgePointers += (len(vx.Inputs) + len(vx.Outputs)) * cfg.EdgeBytes
			if codeletsOnTile[vx.Tile] == nil {
				codeletsOnTile[vx.Tile] = map[string]bool{}
			}
			if !codeletsOnTile[vx.Tile][vx.Codelet] {
				codeletsOnTile[vx.Tile][vx.Codelet] = true
				mb.CodeletCode += cfg.CodeletCodeBytes
			}
		}
	}

	// Control code: every tile holds the program skeleton.
	ctl := len(g.Program) * cfg.CSControlBytes
	for t := range c.PerTile {
		c.PerTile[t].ControlCode += ctl
	}

	// Exchange planning per executed step + exchange code and buffers.
	maxInBytes := make(map[int]float64) // per-tile peak landing buffer
	for _, st := range g.Program {
		ex := &stepExchange{
			inBytes:  map[int]float64{},
			outBytes: map[int]float64{},
			msgs:     map[int]int{},
		}
		for _, vx := range g.CSs[st.CS].Vertices {
			for _, r := range vx.Inputs {
				addRemoteTraffic(g, ex, r, vx.Tile, true)
			}
			for _, r := range vx.Outputs {
				addRemoteTraffic(g, ex, r, vx.Tile, false)
			}
		}
		for t, b := range ex.inBytes {
			ex.total += b
			if b > maxInBytes[t] {
				maxInBytes[t] = b
			}
		}
		c.exchanges = append(c.exchanges, ex)

		// Exchange code accrues per message endpoint plus a marginal cost
		// per payload byte — this is the compute-set-correlated overhead
		// behind Observation 3. The per-byte component is capped at the
		// stream buffer size: larger transfers reuse one round's code.
		capBytes := func(b float64) float64 {
			if cfg.StreamBufferBytes > 0 && b > float64(cfg.StreamBufferBytes) {
				return float64(cfg.StreamBufferBytes)
			}
			return b
		}
		for t, n := range ex.msgs {
			c.PerTile[t].ExchangeCode += n * cfg.ExchangeCodeBytesPerMsg
		}
		for t, b := range ex.inBytes {
			c.PerTile[t].ExchangeCode += int(capBytes(b) * cfg.ExchangeCodePerByte)
		}
		for t, b := range ex.outBytes {
			c.PerTile[t].ExchangeCode += int(capBytes(b) * cfg.ExchangeCodePerByte)
		}
	}
	for t, b := range maxInBytes {
		buf := int(b)
		if cfg.StreamBufferBytes > 0 && buf > cfg.StreamBufferBytes {
			buf = cfg.StreamBufferBytes // streamed in rounds; see Config.StreamBufferBytes
		}
		c.PerTile[t].ExchangeBuffer += buf
	}

	// Totals, peak, OOM.
	for t := range c.PerTile {
		c.Device.add(c.PerTile[t])
		if tot := c.PerTile[t].Total(); tot > c.PeakBytes {
			c.PeakBytes = tot
			c.PeakTile = t
		}
	}
	if c.PeakBytes > cfg.TileMemBytes {
		return nil, &OOMError{Tile: c.PeakTile, Need: c.PeakBytes, Available: cfg.TileMemBytes}
	}
	return c, nil
}

// addRemoteTraffic accounts the part of region r that does not live on
// vertex tile vt. Inputs are gathered before compute; outputs scattered
// after. One message is counted per remote source/destination interval.
func addRemoteTraffic(g *Graph, ex *stepExchange, r VarRegion, vt int, input bool) {
	vv := g.Vars[r.Var]
	// Find overlapping mapping intervals via binary search on Start.
	idx := sort.Search(len(vv.Mapping), func(i int) bool { return vv.Mapping[i].End > r.Start })
	for ; idx < len(vv.Mapping); idx++ {
		iv := vv.Mapping[idx]
		if iv.Start >= r.End {
			break
		}
		lo, hi := max(iv.Start, r.Start), min(iv.End, r.End)
		if lo >= hi || iv.Tile == vt {
			continue
		}
		bytes := float64((hi - lo) * vv.ElemBytes)
		if input {
			ex.inBytes[vt] += bytes
			ex.outBytes[iv.Tile] += bytes
			ex.msgs[vt]++
			ex.msgs[iv.Tile]++
		} else {
			ex.outBytes[vt] += bytes
			ex.inBytes[iv.Tile] += bytes
			ex.msgs[vt]++
			ex.msgs[iv.Tile]++
		}
	}
}

// FreeBytes returns the unallocated on-chip memory after compilation.
func (c *Compiled) FreeBytes() int {
	return c.Graph.Config.TotalMemBytes() - c.Device.Total()
}
