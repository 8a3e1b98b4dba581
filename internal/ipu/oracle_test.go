package ipu

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/pixelfly"
)

// This file keeps the hash-map exchange planner and simulator that Compile
// and Simulate replaced with dense per-tile slices. They are the oracle:
// both must agree with them on every memory figure, error and step cost.

// mapExchange is the oracle's per-step exchange plan, keyed by tile.
type mapExchange struct {
	// inBytes[t] is the payload tile t receives; msgs[t] the number of
	// distinct source regions it receives (message count drives exchange
	// code size).
	inBytes  map[int]float64
	outBytes map[int]float64
	msgs     map[int]int
	total    float64
}

// compileMap is Compile planning exchange with per-step maps. The returned
// Compiled carries no exchanges of its own; simulateMap reads the maps.
func compileMap(g *Graph) (*Compiled, []*mapExchange, error) {
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

	for _, v := range g.Vars {
		for _, iv := range v.Mapping {
			c.PerTile[iv.Tile].Variables += (iv.End - iv.Start) * v.ElemBytes
		}
	}

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

	ctl := len(g.Program) * cfg.CSControlBytes
	for t := range c.PerTile {
		c.PerTile[t].ControlCode += ctl
	}

	var exchanges []*mapExchange
	maxInBytes := make(map[int]float64)
	for _, st := range g.Program {
		ex := &mapExchange{
			inBytes:  map[int]float64{},
			outBytes: map[int]float64{},
			msgs:     map[int]int{},
		}
		for _, vx := range g.CSs[st.CS].Vertices {
			for _, r := range vx.Inputs {
				addRemoteTrafficMap(g, ex, r, vx.Tile, true)
			}
			for _, r := range vx.Outputs {
				addRemoteTrafficMap(g, ex, r, vx.Tile, false)
			}
		}
		for t, b := range ex.inBytes {
			ex.total += b
			if b > maxInBytes[t] {
				maxInBytes[t] = b
			}
		}
		exchanges = append(exchanges, ex)

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
			buf = cfg.StreamBufferBytes
		}
		c.PerTile[t].ExchangeBuffer += buf
	}

	for t := range c.PerTile {
		c.Device.add(c.PerTile[t])
		if tot := c.PerTile[t].Total(); tot > c.PeakBytes {
			c.PeakBytes = tot
			c.PeakTile = t
		}
	}
	if c.PeakBytes > cfg.TileMemBytes {
		return nil, nil, &OOMError{Tile: c.PeakTile, Need: c.PeakBytes, Available: cfg.TileMemBytes}
	}
	return c, exchanges, nil
}

func addRemoteTrafficMap(g *Graph, ex *mapExchange, r VarRegion, vt int, input bool) {
	vv := g.Vars[r.Var]
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

// simulateMap is Simulate over compileMap's maps.
func simulateMap(c *Compiled, exchanges []*mapExchange) ExecReport {
	cfg := c.Graph.Config
	rep := ExecReport{}
	for i, st := range c.Graph.Program {
		cs := c.Graph.CSs[st.CS]
		sc := StepCost{Label: st.Label, SyncCycles: cfg.SyncCycles}
		if ex := exchanges[i]; ex.total > 0 {
			var worst float64
			for t, b := range ex.inBytes {
				if tot := b + ex.outBytes[t]; tot > worst {
					worst = tot
				}
			}
			for t, b := range ex.outBytes {
				if _, dup := ex.inBytes[t]; !dup && b > worst {
					worst = b
				}
			}
			sc.ExchangeCycles = cfg.ExchangeSetupCycles + worst/cfg.ExchangeBytesPerTileCycle
		}
		perTile := map[int]*tileWork{}
		for _, vx := range cs.Vertices {
			w := perTile[vx.Tile]
			if w == nil {
				w = &tileWork{}
				perTile[vx.Tile] = w
			}
			cyc := vx.Flops/cfg.ClassRate(vx.Class) + cfg.VertexOverheadCycles
			w.sum += cyc
			w.count++
			if cyc > w.longest {
				w.longest = cyc
			}
		}
		var worstCompute float64
		for _, w := range perTile {
			threads := cfg.ThreadsPerTile
			if w.count < threads {
				threads = w.count
			}
			t := w.sum / float64(threads)
			if t < w.longest {
				t = w.longest
			}
			if t > worstCompute {
				worstCompute = t
			}
		}
		sc.ComputeCycles = worstCompute
		rep.Steps = append(rep.Steps, sc)
		rep.TotalCycles += sc.Cycles()
	}
	rep.DeviceSeconds = rep.TotalCycles / cfg.ClockHz
	return rep
}

// popTorchMap prices a PopTorch run the way Run once did: it scales every
// AMP vertex's flops in place, simulates, and scales them back. Build a
// fresh workload for each call; the round trip does not restore every
// value.
func popTorchMap(c *Compiled, exchanges []*mapExchange) ExecReport {
	scale := func(factor float64) {
		for _, cs := range c.Graph.CSs {
			for _, v := range cs.Vertices {
				if v.Class == ClassAMP {
					v.Flops *= factor
				}
			}
		}
	}
	scale(1 / popTorchAMPEfficiency)
	defer scale(popTorchAMPEfficiency)
	return simulateMap(c, exchanges)
}

// checkAgainstMap compiles and simulates two identically built graphs, one
// with Compile and Simulate and one with the map oracle, and fails on any
// difference in memory accounting, error text or step cost, plain or
// priced as PopTorch.
func checkAgainstMap(t *testing.T, name string, build func() *Graph) {
	t.Helper()
	g, og := build(), build()
	c, err := Compile(g)
	oc, oex, oerr := compileMap(og)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("%s: Compile error %v, oracle %v", name, err, oerr)
	}
	if err != nil {
		if err.Error() != oerr.Error() {
			t.Fatalf("%s: Compile error %q, oracle %q", name, err, oerr)
		}
		return
	}
	for i := range oc.PerTile {
		if c.PerTile[i] != oc.PerTile[i] {
			t.Fatalf("%s: tile %d memory %+v, oracle %+v", name, i, c.PerTile[i], oc.PerTile[i])
		}
	}
	if c.Device != oc.Device || c.PeakTile != oc.PeakTile || c.PeakBytes != oc.PeakBytes {
		t.Fatalf("%s: device %+v peak %d@%d, oracle %+v peak %d@%d", name,
			c.Device, c.PeakBytes, c.PeakTile, oc.Device, oc.PeakBytes, oc.PeakTile)
	}
	if c.NumVariables != oc.NumVariables || c.NumVertices != oc.NumVertices ||
		c.NumEdges != oc.NumEdges || c.NumComputeSets != oc.NumComputeSets {
		t.Fatalf("%s: counters %d/%d/%d/%d, oracle %d/%d/%d/%d", name,
			c.NumVariables, c.NumVertices, c.NumEdges, c.NumComputeSets,
			oc.NumVariables, oc.NumVertices, oc.NumEdges, oc.NumComputeSets)
	}
	if got, want := Simulate(c), simulateMap(oc, oex); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Simulate\n%+v\noracle\n%+v", name, got, want)
	}
	if got, want := simulate(c, 1/popTorchAMPEfficiency), popTorchMap(oc, oex); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: PopTorch simulate\n%+v\noracle\n%+v", name, got, want)
	}
}

// Every builder, at every served batch bucket, compiles and prices exactly
// as the map oracle does, at three widths on both IPU generations. The
// shapes cover variables with fewer elements than tiles (N=64 at batch 1),
// last intervals shorter than the grain, and vertex tiles inside the run
// of tiles a region covers.
func TestCompileMatchesMapOracle(t *testing.T) {
	for _, cfg := range []Config{GC200(), GC2()} {
		for _, n := range []int{64, 256, 1024} {
			pcfg := pixelfly.Config{N: n, BlockSize: 64, ButterflySize: 16, LowRank: 32}
			builders := []struct {
				name  string
				build func(batch int) *Workload
			}{
				{"linear", func(b int) *Workload { return BuildLinear(cfg, n, b) }},
				{"butterfly", func(b int) *Workload { return BuildButterflyMM(cfg, n, b) }},
				{"fastfood", func(b int) *Workload { return BuildFastfood(cfg, n, b) }},
				{"circulant", func(b int) *Workload { return BuildCirculant(cfg, n, b) }},
				{"lowrank", func(b int) *Workload { return BuildLowRank(cfg, n, 1, b) }},
				{"pixelfly", func(b int) *Workload { return BuildPixelflyMM(cfg, pcfg, b) }},
				{"naive", func(b int) *Workload { return BuildDenseMatMul(cfg, b, n, n, MMNaive) }},
				{"blocked", func(b int) *Workload { return BuildDenseMatMul(cfg, b, n, n, MMBlocked) }},
				{"poplin", func(b int) *Workload { return BuildDenseMatMul(cfg, b, n, n, MMPoplin) }},
				// Density in percent: 1 is Table 2's sparsest case.
				{"sparse", func(b int) *Workload { return BuildSparseMM(cfg, n, float64(b)/100) }},
			}
			for _, bl := range builders {
				for b := 1; b <= 64; b *= 2 {
					name := fmt.Sprintf("%s/%s/n%d/b%d", cfg.Name, bl.name, n, b)
					checkAgainstMap(t, name, func() *Graph { return bl.build(b).Graph })
				}
			}
		}
		// A tile memory too small for the layer takes the OOM path.
		small := cfg
		small.TileMemBytes = 64 * 1024
		checkAgainstMap(t, cfg.Name+"/linear-oom", func() *Graph { return BuildLinear(small, 1024, 64).Graph })
	}
}

// fuzzBytes hands out small choices from the fuzzer's input, and zeros once
// it runs dry.
type fuzzBytes []byte

func (f *fuzzBytes) next(n int) int {
	if len(*f) == 0 || n <= 1 {
		return 0
	}
	v := int((*f)[0]) % n
	*f = (*f)[1:]
	return v
}

// fuzzGraph builds a small random graph: a few tiles, variables with linear
// or explicit random mappings, compute sets of vertices on random regions,
// a program that may repeat compute sets, and a tile memory small enough
// that some graphs run out of it.
func fuzzGraph(data []byte) *Graph {
	in := fuzzBytes(data)
	cfg := GC200()
	cfg.Tiles = 1 + in.next(6)
	cfg.ThreadsPerTile = 1 + in.next(6)
	cfg.TileMemBytes = 256 + 64*in.next(64)
	cfg.StreamBufferBytes = 16 * in.next(8)
	g := NewGraph(cfg)
	for nv := 1 + in.next(4); len(g.Vars) < nv; {
		elems := in.next(48)
		id := g.AddVariable("v", elems, 1+in.next(8))
		if in.next(2) == 0 {
			continue // linear mapping, set by Compile
		}
		cuts := []int{0, elems}
		for nc := in.next(4); nc > 0; nc-- {
			cuts = append(cuts, in.next(elems+1))
		}
		sort.Ints(cuts)
		var m []Interval
		for i := 1; i < len(cuts); i++ {
			m = append(m, Interval{Tile: in.next(cfg.Tiles), Start: cuts[i-1], End: cuts[i]})
		}
		if err := g.SetTileMapping(id, m); err != nil {
			panic(err)
		}
	}
	region := func() VarRegion {
		v := g.Vars[in.next(len(g.Vars))]
		start := in.next(v.Elems + 1)
		return VarRegion{Var: v.ID, Start: start, End: start + in.next(v.Elems-start+1)}
	}
	codelets := []string{"A", "B", "C"}
	for ncs := 1 + in.next(4); len(g.CSs) < ncs; {
		id := g.AddComputeSet("cs")
		for nvx := in.next(6); nvx > 0; nvx-- {
			var ins, outs []VarRegion
			for nr := in.next(3); nr > 0; nr-- {
				ins = append(ins, region())
			}
			for nr := in.next(3); nr > 0; nr-- {
				outs = append(outs, region())
			}
			g.AddVertex(id, codelets[in.next(len(codelets))], ComputeClass(in.next(4)),
				in.next(cfg.Tiles), ins, outs, float64(in.next(256))*1.5)
		}
	}
	for steps := 1 + in.next(8); len(g.Program) < steps; {
		g.Execute(ComputeSetID(in.next(len(g.CSs))))
	}
	return g
}

// FuzzCompile checks Compile and Simulate against the map oracle on random
// small graphs.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 10, 4, 1, 20, 3, 1, 5, 2, 7, 0, 3, 1, 2, 4, 2, 2, 1, 9, 1, 3, 2, 0, 2, 1, 1, 30, 5, 1, 0, 0, 1, 3})
	f.Add([]byte{5, 5, 0, 7, 3, 40, 4, 1, 9, 0, 9, 3, 9, 2, 20, 1, 47, 1, 3, 5, 2, 2, 1, 3, 0, 12, 2, 2, 7, 8, 1, 5, 255, 7, 1, 2, 3, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstMap(t, "fuzz", func() *Graph { return fuzzGraph(data) })
	})
}
