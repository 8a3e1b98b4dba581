package ipu

import "fmt"

// VarID identifies a variable (tensor) in a Graph.
type VarID int

// ComputeSetID identifies a compute set.
type ComputeSetID int

// Interval maps a contiguous element range [Start, End) of a variable to a
// tile.
type Interval struct {
	Tile       int
	Start, End int
}

// Variable is a graph tensor with an element count, element width, and a
// tile mapping.
type Variable struct {
	ID        VarID
	Name      string
	Elems     int
	ElemBytes int
	Mapping   []Interval // sorted by Start, disjoint, covering [0, Elems)
}

// VarRegion references elements [Start, End) of a variable.
type VarRegion struct {
	Var        VarID
	Start, End int
}

// Vertex is a unit of computation mapped to one tile.
type Vertex struct {
	Codelet string
	Class   ComputeClass
	Tile    int
	Inputs  []VarRegion
	Outputs []VarRegion
	// Flops is the arithmetic work (bytes moved for ClassCopy).
	Flops float64
}

// ComputeSet groups vertices that execute in one BSP superstep.
type ComputeSet struct {
	ID       ComputeSetID
	Name     string
	Vertices []*Vertex
}

// Step is one element of the program sequence: it executes one compute
// set (sync + exchange + compute).
type Step struct {
	CS    ComputeSetID
	Label string
}

// Graph is a Poplar-style dataflow graph plus a program (step sequence).
type Graph struct {
	Config  Config
	Vars    []*Variable
	CSs     []*ComputeSet
	Program []Step
}

// NewGraph creates an empty graph for a machine config.
func NewGraph(cfg Config) *Graph {
	return &Graph{Config: cfg}
}

// AddVariable declares a tensor with elems elements of elemBytes each. The
// mapping defaults to a linear spread over all tiles (set later by the
// compiler); use SetTileMapping for explicit placement.
func (g *Graph) AddVariable(name string, elems, elemBytes int) VarID {
	if elems < 0 || elemBytes <= 0 {
		panic(fmt.Sprintf("ipu: invalid variable %q: %d elems × %d bytes", name, elems, elemBytes))
	}
	id := VarID(len(g.Vars))
	g.Vars = append(g.Vars, &Variable{ID: id, Name: name, Elems: elems, ElemBytes: elemBytes})
	return id
}

// SetTileMapping assigns explicit intervals. Intervals must be disjoint,
// sorted, and cover [0, Elems).
func (g *Graph) SetTileMapping(id VarID, mapping []Interval) error {
	v := g.Vars[id]
	covered := 0
	for i, iv := range mapping {
		if iv.Tile < 0 || iv.Tile >= g.Config.Tiles {
			return fmt.Errorf("ipu: %q interval %d targets tile %d outside 0..%d", v.Name, i, iv.Tile, g.Config.Tiles-1)
		}
		if iv.Start != covered || iv.End < iv.Start {
			return fmt.Errorf("ipu: %q mapping not contiguous at interval %d", v.Name, i)
		}
		covered = iv.End
	}
	if covered != v.Elems {
		return fmt.Errorf("ipu: %q mapping covers %d of %d elements", v.Name, covered, v.Elems)
	}
	v.Mapping = mapping
	return nil
}

// LinearMapping spreads elems contiguously across tiles with equal-sized
// grains (the Poplar default mapping): interval t lives on tile t and
// holds linearGrainSize elements, the last one what is left.
func LinearMapping(cfg Config, elems int) []Interval {
	grain := linearGrainSize(cfg, elems)
	if grain == 0 {
		return nil
	}
	out := make([]Interval, 0, ceilDiv(elems, grain))
	for t, start := 0, 0; start < elems; t, start = t+1, start+grain {
		out = append(out, Interval{Tile: t, Start: start, End: min(start+grain, elems)})
	}
	return out
}

// linearGrainSize is the number of elements LinearMapping puts on each
// tile: elems over the tiles, rounded up; 0 for no elements.
func linearGrainSize(cfg Config, elems int) int {
	return ceilDiv(elems, cfg.Tiles)
}

// AddComputeSet creates a named compute set.
func (g *Graph) AddComputeSet(name string) ComputeSetID {
	id := ComputeSetID(len(g.CSs))
	g.CSs = append(g.CSs, &ComputeSet{ID: id, Name: name})
	return id
}

// AddVertex places a vertex in a compute set on a tile.
func (g *Graph) AddVertex(cs ComputeSetID, codelet string, class ComputeClass, tile int,
	inputs, outputs []VarRegion, flops float64) {
	if tile < 0 || tile >= g.Config.Tiles {
		panic(fmt.Sprintf("ipu: vertex %q on tile %d outside 0..%d", codelet, tile, g.Config.Tiles-1))
	}
	for _, rs := range [2][]VarRegion{inputs, outputs} {
		for _, r := range rs {
			if int(r.Var) >= len(g.Vars) || r.Start < 0 || r.End > g.Vars[r.Var].Elems || r.Start > r.End {
				panic(fmt.Sprintf("ipu: vertex %q has bad region %+v", codelet, r))
			}
		}
	}
	g.CSs[cs].Vertices = append(g.CSs[cs].Vertices, &Vertex{
		Codelet: codelet, Class: class, Tile: tile,
		Inputs: inputs, Outputs: outputs, Flops: flops,
	})
}

// Execute appends a compute-set execution to the program.
func (g *Graph) Execute(cs ComputeSetID) {
	g.Program = append(g.Program, Step{CS: cs, Label: g.CSs[cs].Name})
}

// NumEdges counts vertex<->variable connections across the whole graph.
func (g *Graph) NumEdges() int {
	n := 0
	for _, cs := range g.CSs {
		for _, v := range cs.Vertices {
			n += len(v.Inputs) + len(v.Outputs)
		}
	}
	return n
}

// NumVertices counts vertices across all compute sets.
func (g *Graph) NumVertices() int {
	n := 0
	for _, cs := range g.CSs {
		n += len(cs.Vertices)
	}
	return n
}
