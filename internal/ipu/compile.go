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

// stepExchange is the planned exchange preceding one executed compute
// set, reduced to what Simulate prices.
type stepExchange struct {
	total float64 // payload bytes landed on all tiles
	worst float64 // the busiest tile's inbound plus outbound bytes
}

// Compiled is the result of Compile: placement, exchange plan and memory
// accounting, ready for the cost engine.
type Compiled struct {
	Graph *Graph

	// Exchange plans indexed by program step.
	exchanges []stepExchange

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
	pl := newExchangePlanner(cfg.Tiles)
	c.exchanges = make([]stepExchange, len(g.Program))
	for i, st := range g.Program {
		for _, vx := range g.CSs[st.CS].Vertices {
			for _, r := range vx.Inputs {
				pl.addRemoteTraffic(g, r, vx.Tile, true)
			}
			for _, r := range vx.Outputs {
				pl.addRemoteTraffic(g, r, vx.Tile, false)
			}
		}
		c.exchanges[i] = pl.endStep(cfg, c.PerTile)
	}
	for t, b := range pl.maxIn {
		c.PerTile[t].ExchangeBuffer += int(streamed(cfg, b))
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

// exchangePlanner accumulates one step's exchange per tile in dense
// per-tile slices. touched lists the tiles the step has moved bytes to or
// from, so closing a step visits and clears only those.
type exchangePlanner struct {
	in, out []float64 // payload tile t receives and sends this step
	msgs    []int     // remote regions tile t exchanges this step
	maxIn   []float64 // tile t's largest inbound payload over all steps
	touched []int
}

func newExchangePlanner(tiles int) *exchangePlanner {
	return &exchangePlanner{
		in:    make([]float64, tiles),
		out:   make([]float64, tiles),
		msgs:  make([]int, tiles),
		maxIn: make([]float64, tiles),
	}
}

// addRemoteTraffic accounts the part of region r that does not live on
// vertex tile vt. Inputs are gathered before compute; outputs scattered
// after. One message is counted per remote source/destination interval.
func (p *exchangePlanner) addRemoteTraffic(g *Graph, r VarRegion, vt int, input bool) {
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
			p.in[vt] += bytes
			p.out[iv.Tile] += bytes
		} else {
			p.out[vt] += bytes
			p.in[iv.Tile] += bytes
		}
		p.message(vt)
		p.message(iv.Tile)
	}
}

// message counts one message endpoint on tile t.
func (p *exchangePlanner) message(t int) {
	if p.msgs[t] == 0 {
		p.touched = append(p.touched, t)
	}
	p.msgs[t]++
}

// endStep closes the step's exchange: it charges each touched tile's
// exchange code to perTile, raises its peak landing buffer, clears its
// counters and returns what Simulate prices.
//
// Exchange code accrues per message endpoint plus a marginal cost per
// payload byte — this is the compute-set-correlated overhead behind
// Observation 3. The per-byte component is capped at the stream buffer
// size: larger transfers reuse one round's code.
func (p *exchangePlanner) endStep(cfg Config, perTile []MemoryBreakdown) stepExchange {
	var ex stepExchange
	for _, t := range p.touched {
		in, out := p.in[t], p.out[t]
		ex.total += in
		ex.worst = max(ex.worst, in+out)
		p.maxIn[t] = max(p.maxIn[t], in)
		perTile[t].ExchangeCode += p.msgs[t]*cfg.ExchangeCodeBytesPerMsg +
			int(streamed(cfg, in)*cfg.ExchangeCodePerByte) +
			int(streamed(cfg, out)*cfg.ExchangeCodePerByte)
		p.in[t], p.out[t], p.msgs[t] = 0, 0, 0
	}
	p.touched = p.touched[:0]
	return ex
}

// streamed caps a per-tile payload at the stream buffer: larger inputs
// are exchanged in rounds through it (see Config.StreamBufferBytes).
func streamed(cfg Config, b float64) float64 {
	if cfg.StreamBufferBytes > 0 && b > float64(cfg.StreamBufferBytes) {
		return float64(cfg.StreamBufferBytes)
	}
	return b
}

// FreeBytes returns the unallocated on-chip memory after compilation.
func (c *Compiled) FreeBytes() int {
	return c.Graph.Config.TotalMemBytes() - c.Device.Total()
}
