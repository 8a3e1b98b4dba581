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
	// grains[v] is the grain of variable v's mapping when that mapping is
	// LinearMapping's layout for its size, and 0 for any other mapping.
	// It is read from the mapping on every Compile, so a mapping replaced
	// since the last one is planned as it now stands.
	grains := make([]int, len(g.Vars))
	for i, v := range g.Vars {
		if v.Mapping == nil {
			v.Mapping = LinearMapping(cfg, v.Elems)
		}
		grains[i] = linearGrain(cfg, v)
	}

	c := &Compiled{Graph: g,
		PerTile:      make([]MemoryBreakdown, cfg.Tiles),
		NumVariables: len(g.Vars),
		NumVertices:  g.NumVertices(),
		NumEdges:     g.NumEdges(),
	}
	seen := make([]bool, len(g.CSs))
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
	type tileCodelet struct {
		tile    int
		codelet string
	}
	resident := map[tileCodelet]bool{}
	for _, cs := range g.CSs {
		for _, vx := range cs.Vertices {
			mb := &c.PerTile[vx.Tile]
			mb.VertexState += cfg.VertexDescriptorBytes
			mb.EdgePointers += (len(vx.Inputs) + len(vx.Outputs)) * cfg.EdgeBytes
			if k := (tileCodelet{vx.Tile, vx.Codelet}); !resident[k] {
				resident[k] = true
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
				pl.addRemoteTraffic(g.Vars[r.Var], grains[r.Var], r, vx.Tile, true)
			}
			for _, r := range vx.Outputs {
				pl.addRemoteTraffic(g.Vars[r.Var], grains[r.Var], r, vx.Tile, false)
			}
		}
		c.exchanges[i] = pl.endStep(cfg, c.PerTile)
	}
	for t, b := range pl.maxIn {
		c.PerTile[t].ExchangeBuffer += int(streamed(cfg, float64(b)))
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

// linearGrain returns the grain of v's mapping when it is LinearMapping's
// layout for v's size, and 0 when it is any other mapping.
func linearGrain(cfg Config, v *Variable) int {
	grain := linearGrainSize(cfg, v.Elems)
	if grain == 0 || len(v.Mapping) != ceilDiv(v.Elems, grain) {
		return 0
	}
	for t, iv := range v.Mapping {
		if iv != (Interval{Tile: t, Start: t * grain, End: min((t+1)*grain, v.Elems)}) {
			return 0
		}
	}
	return grain
}

// exchangePlanner accumulates one step's exchange per tile. Its in, out
// and msgs counters are difference arrays over the tile index: charging
// every tile in [a, b) adds at a and subtracts at b, so a run of tiles
// costs one update whatever its length. [lo, hi) spans the tiles the step
// has charged; closing the step prefix-sums, prices and clears only that
// span. Every counter is an integer, so the order of the updates does not
// change any sum.
type exchangePlanner struct {
	in, out []int // payload tile t receives and sends this step
	msgs    []int // remote intervals tile t exchanges this step
	maxIn   []int // tile t's largest inbound payload over all steps
	lo, hi  int
}

func newExchangePlanner(tiles int) *exchangePlanner {
	return &exchangePlanner{
		in:    make([]int, tiles+1),
		out:   make([]int, tiles+1),
		msgs:  make([]int, tiles+1),
		maxIn: make([]int, tiles),
		lo:    tiles,
	}
}

// addRemoteTraffic accounts the part of region r of variable v that does
// not live on vertex tile vt. Inputs are gathered before compute: each
// remote mapping interval the region overlaps sends its overlap to vt.
// Outputs are scattered after compute, the other way. One message is
// counted at both ends of each remote interval.
//
// grain is linearGrain's for v. Under a linear mapping interval t lives on
// tile t and holds grain elements, so the region covers one run of tiles
// and every interval strictly inside the run is full: the region costs a
// range update for the run's interior, point updates for its two ends,
// and one update on the vertex's side. Any other mapping is walked
// interval by interval from a binary search.
func (p *exchangePlanner) addRemoteTraffic(v *Variable, grain int, r VarRegion, vt int, input bool) {
	if r.Start >= r.End {
		return
	}
	near, far := p.in, p.out // the vertex's side and the mapping's side
	if !input {
		near, far = p.out, p.in
	}
	bytes, n := 0, 0 // what vt exchanges, over how many remote intervals
	if grain > 0 {
		first := r.Start / grain
		last := first
		if r.End > (first+1)*grain {
			last = (r.End - 1) / grain
		}
		overlap := func(t int) int {
			return (min(r.End, (t+1)*grain) - max(r.Start, t*grain)) * v.ElemBytes
		}
		p.addExcept(far, first, first+1, overlap(first), vt)
		if last > first {
			p.addExcept(far, first+1, last, grain*v.ElemBytes, vt)
			p.addExcept(far, last, last+1, overlap(last), vt)
		}
		bytes, n = (r.End-r.Start)*v.ElemBytes, last-first+1
		if first <= vt && vt <= last {
			bytes -= overlap(vt)
			n--
		}
	} else {
		m := v.Mapping
		i := sort.Search(len(m), func(i int) bool { return m[i].End > r.Start })
		for ; i < len(m) && m[i].Start < r.End; i++ {
			iv := m[i]
			lo, hi := max(iv.Start, r.Start), min(iv.End, r.End)
			if lo >= hi || iv.Tile == vt {
				continue
			}
			b := (hi - lo) * v.ElemBytes
			p.add(far, iv.Tile, iv.Tile+1, b, 1)
			bytes += b
			n++
		}
	}
	if n > 0 {
		p.add(near, vt, vt+1, bytes, n)
	}
}

// addExcept charges every tile in [a, b) but vt with bytes on side and
// one message: the intervals of a run that are remote from vt.
func (p *exchangePlanner) addExcept(side []int, a, b, bytes, vt int) {
	if a <= vt && vt < b {
		if a < vt {
			p.add(side, a, vt, bytes, 1)
		}
		a = vt + 1
	}
	if a < b {
		p.add(side, a, b, bytes, 1)
	}
}

// add charges every tile in [a, b) with bytes on side (in or out) and
// msgs messages.
func (p *exchangePlanner) add(side []int, a, b, bytes, msgs int) {
	side[a] += bytes
	side[b] -= bytes
	p.msgs[a] += msgs
	p.msgs[b] -= msgs
	p.lo, p.hi = min(p.lo, a), max(p.hi, b)
}

// endStep closes the step's exchange: it prefix-sums the span of tiles the
// step charged, charges each tile's exchange code to perTile, raises its
// peak landing buffer, clears its counters and returns what Simulate
// prices.
//
// Exchange code accrues per message endpoint plus a marginal cost per
// payload byte — this is the compute-set-correlated overhead behind
// Observation 3. The per-byte component is capped at the stream buffer
// size: larger transfers reuse one round's code.
func (p *exchangePlanner) endStep(cfg Config, perTile []MemoryBreakdown) stepExchange {
	var ex stepExchange
	in, out, msgs := 0, 0, 0
	for t := p.lo; t < p.hi; t++ {
		in, out, msgs = in+p.in[t], out+p.out[t], msgs+p.msgs[t]
		p.in[t], p.out[t], p.msgs[t] = 0, 0, 0
		if msgs == 0 {
			continue
		}
		fin, fout := float64(in), float64(out)
		ex.total += fin
		ex.worst = max(ex.worst, fin+fout)
		p.maxIn[t] = max(p.maxIn[t], in)
		perTile[t].ExchangeCode += msgs*cfg.ExchangeCodeBytesPerMsg +
			int(streamed(cfg, fin)*cfg.ExchangeCodePerByte) +
			int(streamed(cfg, fout)*cfg.ExchangeCodePerByte)
	}
	if p.lo < p.hi {
		p.in[p.hi], p.out[p.hi], p.msgs[p.hi] = 0, 0, 0
	}
	p.lo, p.hi = len(p.maxIn), 0
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
