package ipu

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pixelfly"
)

func TestGC200SpecMatchesTable1(t *testing.T) {
	cfg := GC200()
	if cfg.Tiles != 1472 {
		t.Errorf("tiles = %d, want 1472", cfg.Tiles)
	}
	// 900 MB on-chip memory (1472 × 624 KiB = 918 MB ≈ Table 1's 900 MB).
	if got := cfg.TotalMemBytes(); got < 890e6 || got > 950e6 {
		t.Errorf("total memory = %d, want ~900 MB", got)
	}
	// 62.5 TFLOP/s FP32 peak.
	if got := cfg.PeakFlops(); got < 62e12 || got > 63e12 {
		t.Errorf("peak = %v, want ~62.5 TF", got)
	}
	if cfg.ThreadsPerTile != 6 {
		t.Errorf("threads per tile = %d, want 6", cfg.ThreadsPerTile)
	}
}

func TestLinearMappingCoversEverything(t *testing.T) {
	cfg := GC200()
	for _, elems := range []int{1, 7, 1472, 1473, 1 << 20} {
		m := LinearMapping(cfg, elems)
		covered := 0
		for i, iv := range m {
			if iv.Start != covered {
				t.Fatalf("elems=%d interval %d not contiguous", elems, i)
			}
			covered = iv.End
			if iv.Tile < 0 || iv.Tile >= cfg.Tiles {
				t.Fatalf("elems=%d interval %d bad tile %d", elems, i, iv.Tile)
			}
		}
		if covered != elems {
			t.Fatalf("elems=%d covered %d", elems, covered)
		}
	}
}

func TestSetTileMappingValidation(t *testing.T) {
	g := NewGraph(GC200())
	v := g.AddVariable("x", 10, 4)
	if err := g.SetTileMapping(v, []Interval{{Tile: 0, Start: 0, End: 5}}); err == nil {
		t.Fatal("partial mapping accepted")
	}
	if err := g.SetTileMapping(v, []Interval{{Tile: -1, Start: 0, End: 10}}); err == nil {
		t.Fatal("negative tile accepted")
	}
	if err := g.SetTileMapping(v, []Interval{{Tile: 0, Start: 0, End: 10}}); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
}

func TestCompileCountsGraphObjects(t *testing.T) {
	g := NewGraph(GC200())
	a := g.AddVariable("a", 100, 4)
	b := g.AddVariable("b", 100, 4)
	cs := g.AddComputeSet("add")
	g.AddVertex(cs, "Add", ClassSIMD, 0,
		[]VarRegion{{Var: a, Start: 0, End: 100}},
		[]VarRegion{{Var: b, Start: 0, End: 100}}, 100)
	g.Execute(cs)
	c, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumVariables != 2 || c.NumVertices != 1 || c.NumEdges != 2 || c.NumComputeSets != 1 {
		t.Fatalf("counters wrong: %+v", c)
	}
	if c.Device.Variables != 800 {
		t.Fatalf("variable bytes = %d, want 800", c.Device.Variables)
	}
}

func TestCompileOOM(t *testing.T) {
	cfg := GC200()
	g := NewGraph(cfg)
	// One variable pinned entirely to tile 0, larger than tile memory.
	v := g.AddVariable("huge", cfg.TileMemBytes/4+1000, 4)
	if err := g.SetTileMapping(v, []Interval{{Tile: 0, Start: 0, End: cfg.TileMemBytes/4 + 1000}}); err != nil {
		t.Fatal(err)
	}
	_, err := Compile(g)
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("expected OOMError, got %v", err)
	}
	if oom.Tile != 0 {
		t.Fatalf("OOM tile = %d, want 0", oom.Tile)
	}
	if !strings.Contains(oom.Error(), "out of memory") {
		t.Fatalf("unhelpful error: %v", oom)
	}
}

func TestExchangePlansOnlyRemoteBytes(t *testing.T) {
	cfg := GC200()
	g := NewGraph(cfg)
	a := g.AddVariable("a", 1000, 4)
	if err := g.SetTileMapping(a, []Interval{
		{Tile: 0, Start: 0, End: 500},
		{Tile: 1, Start: 500, End: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	out := g.AddVariable("out", 1000, 4)
	if err := g.SetTileMapping(out, []Interval{{Tile: 0, Start: 0, End: 1000}}); err != nil {
		t.Fatal(err)
	}
	cs := g.AddComputeSet("consume")
	g.AddVertex(cs, "Consume", ClassSIMD, 0,
		[]VarRegion{{Var: a, Start: 0, End: 1000}},
		[]VarRegion{{Var: out, Start: 0, End: 1000}}, 1000)
	g.Execute(cs)
	c, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	// Only the half of `a` living on tile 1 crosses the fabric: tile 0
	// lands it, tile 1 sends it and lands nothing.
	if got := c.exchanges[0].total; got != 2000 {
		t.Fatalf("step moves %v bytes, want 2000", got)
	}
	if got := c.PerTile[0].ExchangeBuffer; got != 2000 {
		t.Fatalf("tile 0 lands %d bytes, want 2000", got)
	}
	if got := c.PerTile[1].ExchangeBuffer; got != 0 {
		t.Fatalf("tile 1 lands %d bytes, want 0", got)
	}
}

func TestSimulateChargesSyncPerStep(t *testing.T) {
	cfg := GC200()
	g := NewGraph(cfg)
	a := g.AddVariable("a", 8, 4)
	cs := g.AddComputeSet("noop")
	g.AddVertex(cs, "Nop", ClassSIMD, 0, nil, []VarRegion{{Var: a, Start: 0, End: 8}}, 1)
	g.Execute(cs)
	g.Execute(cs)
	c, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	rep := Simulate(c)
	if len(rep.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(rep.Steps))
	}
	if rep.Steps[0].SyncCycles != cfg.SyncCycles {
		t.Fatalf("sync cycles = %v, want %v", rep.Steps[0].SyncCycles, cfg.SyncCycles)
	}
}

func TestSimulateThreadsShareTile(t *testing.T) {
	// 6 equal vertices on one tile should take ~1 vertex-time (6 threads),
	// 12 should take ~2.
	cfg := GC200()
	build := func(n int) float64 {
		g := NewGraph(cfg)
		a := g.AddVariable("a", 1024, 4)
		cs := g.AddComputeSet("work")
		for i := 0; i < n; i++ {
			g.AddVertex(cs, "W", ClassSIMD, 0, nil,
				[]VarRegion{{Var: a, Start: 0, End: 1}}, 6000)
		}
		g.Execute(cs)
		c, err := Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		return Simulate(c).Steps[0].ComputeCycles
	}
	t6, t12 := build(6), build(12)
	ratio := t12 / t6
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("12 vs 6 vertices ratio = %v, want ~2 (time-sliced threads)", ratio)
	}
}

// Observation 1: exchange latency/bandwidth between neighbouring tiles
// (0,1) and distant tiles (0,644) must be identical, and must scale with
// message size — Fig. 3.
func TestFig3ExchangeDistanceIndependence(t *testing.T) {
	cfg := GC200()
	for _, size := range []int{8, 1024, 64 * 1024, 256 * 1024} {
		near, err := ExchangeMicrobench(cfg, 0, 1, size)
		if err != nil {
			t.Fatal(err)
		}
		far, err := ExchangeMicrobench(cfg, 0, 644, size)
		if err != nil {
			t.Fatal(err)
		}
		if near.LatencySeconds != far.LatencySeconds {
			t.Fatalf("size %d: latency differs with distance: %v vs %v",
				size, near.LatencySeconds, far.LatencySeconds)
		}
	}
	small, _ := ExchangeMicrobench(cfg, 0, 1, 64)
	large, _ := ExchangeMicrobench(cfg, 0, 1, 256*1024)
	if large.LatencySeconds <= small.LatencySeconds {
		t.Fatal("latency must grow with size")
	}
	if large.BandwidthBytesPerSec <= small.BandwidthBytesPerSec {
		t.Fatal("effective bandwidth must improve with size (fixed costs amortize)")
	}
}

func TestExchangeMicrobenchErrors(t *testing.T) {
	cfg := GC200()
	if _, err := ExchangeMicrobench(cfg, 0, 0, 64); err == nil {
		t.Fatal("same-tile copy accepted")
	}
	if _, err := ExchangeMicrobench(cfg, 0, 1, cfg.TileMemBytes+1); err == nil {
		t.Fatal("payload larger than tile memory accepted")
	}
	if _, err := ExchangeMicrobench(cfg, 0, 1, 0); err == nil {
		t.Fatal("zero-size copy accepted")
	}
}

// Table 2 shape (IPU columns): poplin ≫ naive ≫ blocked, and poplin above
// half of peak.
func TestTable2IPUOrdering(t *testing.T) {
	cfg := GC200()
	n := 1024 // smaller than the paper's 2048 to keep the test fast
	gf := map[MatMulVariant]float64{}
	for _, v := range []MatMulVariant{MMNaive, MMBlocked, MMPoplin} {
		res, err := Run(BuildDenseMatMul(cfg, n, n, n, v), RunOptions{})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		gf[v] = res.GFlops()
	}
	if !(gf[MMPoplin] > gf[MMNaive] && gf[MMNaive] > gf[MMBlocked]) {
		t.Fatalf("ordering wrong: poplin=%v naive=%v blocked=%v",
			gf[MMPoplin], gf[MMNaive], gf[MMBlocked])
	}
	if gf[MMPoplin] < 0.3*cfg.PeakFlops()/1e9 {
		t.Fatalf("poplin %v GF too far below peak", gf[MMPoplin])
	}
}

// Table 2 sparse shape: dense-equivalent GFLOP/s at 99% sparsity exceeds
// the device peak (the paper's starred numbers).
func TestTable2SparseExceedsPeak(t *testing.T) {
	cfg := GC200()
	res, err := Run(BuildSparseMM(cfg, 2048, 0.01), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DenseEquivGFlops() < cfg.PeakFlops()/1e9 {
		t.Fatalf("99%% sparse dense-equiv %v GF should exceed peak %v GF",
			res.DenseEquivGFlops(), cfg.PeakFlops()/1e9)
	}
	// 90% sparsity is slower in dense-equivalent terms than 99%.
	res90, err := Run(BuildSparseMM(cfg, 2048, 0.10), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res90.DenseEquivGFlops() >= res.DenseEquivGFlops() {
		t.Fatal("dense-equivalent rate should fall with density")
	}
	// ...but its *real* flop rate is higher (better vectorization).
	if res90.GFlops() <= res.GFlops() {
		t.Fatal("real flop rate should rise with density")
	}
}

// PopTorch mode must be slower than raw poplar (host copies included) —
// Table 2's PopTorch column vs the poplin column.
func TestPopTorchOverhead(t *testing.T) {
	cfg := GC200()
	w := BuildDenseMatMul(cfg, 1024, 1024, 1024, MMPoplin)
	raw, err := Run(w, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Run(w, RunOptions{PopTorch: true})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Seconds < 3*raw.Seconds {
		t.Fatalf("PopTorch %v should be far slower than poplar %v", pt.Seconds, raw.Seconds)
	}
}

// Run prices PopTorch's AMP efficiency without touching the workload, so
// a second run of the same workload costs the same and every vertex keeps
// its flops.
func TestRunLeavesWorkloadUnchanged(t *testing.T) {
	w := BuildLinear(GC200(), 1024, 64)
	var flops []float64
	for _, cs := range w.Graph.CSs {
		for _, vx := range cs.Vertices {
			flops = append(flops, vx.Flops)
		}
	}
	first, err := Run(w, RunOptions{PopTorch: true})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(w, RunOptions{PopTorch: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Seconds != second.Seconds {
		t.Fatalf("second run took %v s, first %v s", second.Seconds, first.Seconds)
	}
	i := 0
	for _, cs := range w.Graph.CSs {
		for _, vx := range cs.Vertices {
			if vx.Flops != flops[i] {
				t.Fatalf("vertex %d of %s holds %v flops after two runs, built with %v", i, cs.Name, vx.Flops, flops[i])
			}
			i++
		}
	}
}

// Fig 6 (IPU panel): butterfly loses below the break-even point and wins
// clearly at large N; the degradation at small N is mild (nothing like the
// GPU's 14×).
func TestFig6IPUButterflyShape(t *testing.T) {
	cfg := GC200()
	speedup := func(n int) float64 {
		lin, err := Run(BuildLinear(cfg, n, n), RunOptions{PopTorch: true, DeviceLoop: true})
		if err != nil {
			t.Fatal(err)
		}
		bf, err := Run(BuildButterflyMM(cfg, n, n), RunOptions{PopTorch: true, DeviceLoop: true})
		if err != nil {
			t.Fatal(err)
		}
		return lin.Seconds / bf.Seconds
	}
	small := speedup(128)
	large := speedup(4096)
	if small >= 1 {
		t.Fatalf("butterfly should lose at N=128 (speedup %v)", small)
	}
	if small < 0.5 {
		t.Fatalf("IPU degradation at N=128 too severe (%v): should be mild", small)
	}
	if large < 1.2 {
		t.Fatalf("butterfly speedup at N=4096 = %v, want > 1.2 (paper: 1.6)", large)
	}
	if large > 2.5 {
		t.Fatalf("butterfly speedup at N=4096 = %v implausibly high vs paper's 1.6", large)
	}
}

// The memory wall: torch.nn.Linear at N=2^13 no longer compiles (weights +
// activations exceed on-chip memory) while the butterfly layer still fits —
// the motivation of the whole paper.
func TestButterflyOutlivesLinearInMemory(t *testing.T) {
	cfg := GC200()
	n := 8192
	if _, err := Run(BuildLinear(cfg, n, n), RunOptions{PopTorch: true}); err == nil {
		t.Fatal("linear at N=8192 should exceed IPU memory in this model")
	}
	if _, err := Run(BuildButterflyMM(cfg, n, n), RunOptions{PopTorch: true}); err != nil {
		t.Fatalf("butterfly at N=8192 should fit: %v", err)
	}
}

// Fig 5 / Fig 7: compute sets, vertices, edges and total memory all grow
// with problem size; free memory shrinks.
func TestFig5CountersGrow(t *testing.T) {
	cfg := GC200()
	var prev *Compiled
	for _, n := range []int{256, 1024, 2048} {
		c, err := Compile(BuildDenseMatMul(cfg, n, n, n, MMPoplin).Graph)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if c.NumEdges <= prev.NumEdges {
				t.Fatalf("edges did not grow: %d -> %d", prev.NumEdges, c.NumEdges)
			}
			if c.Device.Total() <= prev.Device.Total() {
				t.Fatal("total memory did not grow")
			}
			if c.FreeBytes() >= prev.FreeBytes() {
				t.Fatal("free memory did not shrink")
			}
			if c.NumComputeSets < prev.NumComputeSets {
				t.Fatal("compute sets shrank")
			}
		}
		prev = c
	}
	// Overhead must be a visible fraction beyond raw variables (Obs. 3).
	overhead := prev.Device.Total() - prev.Device.Variables
	if float64(overhead) < 0.2*float64(prev.Device.Variables) {
		t.Fatalf("memory overhead %d too small vs variables %d — Observation 3 not reproduced",
			overhead, prev.Device.Variables)
	}
}

// Fig 7: butterfly executes log2(N) arithmetic compute sets plus 4
// lowering steps each; pixelfly has few arithmetic sets but heavy
// lowering (12 per factor group); linear grows with the K-slicing.
func TestFig7ComputeSetCounts(t *testing.T) {
	cfg := GC200()
	bf, err := Compile(BuildButterflyMM(cfg, 1024, 64).Graph)
	if err != nil {
		t.Fatal(err)
	}
	if bf.NumComputeSets != 10*5 {
		t.Fatalf("butterfly compute sets = %d, want log2(1024)·(1 stage + 4 lowering) = 50",
			bf.NumComputeSets)
	}
	pcfg := pixelfly.Config{N: 1024, BlockSize: 64, ButterflySize: 16, LowRank: 32}
	pf, err := Compile(BuildPixelflyMM(cfg, pcfg, 64).Graph)
	if err != nil {
		t.Fatal(err)
	}
	// 4 arithmetic (mac, reduce, 2×lowrank) + 12 lowering × log2(16) groups.
	if pf.NumComputeSets != 4+12*4 {
		t.Fatalf("pixelfly compute sets = %d, want 52", pf.NumComputeSets)
	}
	// Pixelfly must carry more compute sets than butterfly's arithmetic
	// alone and more variables — the Fig. 7 memory-pressure narrative.
	if pf.NumVariables <= 4 {
		t.Fatal("pixelfly should allocate temporaries (partials, scratch)")
	}
	lin, err := Compile(BuildLinear(cfg, 2048, 64).Graph)
	if err != nil {
		t.Fatal(err)
	}
	if lin.NumComputeSets != 5 {
		t.Fatalf("linear compute sets = %d, want 4 K-slices + bias = 5", lin.NumComputeSets)
	}
}

func TestWorkloadFlopAccounting(t *testing.T) {
	cfg := GC200()
	w := BuildDenseMatMul(cfg, 64, 128, 32, MMPoplin)
	want := 2.0 * 64 * 128 * 32
	if w.Flops != want || w.DenseEquivFlops != want {
		t.Fatalf("flops = %v/%v, want %v", w.Flops, w.DenseEquivFlops, want)
	}
	bf := BuildButterflyMM(cfg, 64, 16)
	if bf.Flops != 6*32*6*16 {
		t.Fatalf("butterfly flops = %v, want %v", bf.Flops, 6*32*6*16)
	}
	if bf.DenseEquivFlops != 2.0*64*64*16 {
		t.Fatalf("butterfly dense-equiv = %v", bf.DenseEquivFlops)
	}
}

func TestGC2IsSmaller(t *testing.T) {
	if GC2().TotalMemBytes() >= GC200().TotalMemBytes() {
		t.Fatal("GC2 should have less memory than GC200")
	}
	if GC2().PeakFlops() >= GC200().PeakFlops() {
		t.Fatal("GC2 should have less compute than GC200")
	}
}

// TestBuildPixelflyMMDeterministic builds one pixelfly workload several
// times: every build must add the same compute sets and vertices in the
// same order, with the same codelet, class, tile, flops and regions.
func TestBuildPixelflyMMDeterministic(t *testing.T) {
	pcfg := pixelfly.Config{N: 1024, BlockSize: 64, ButterflySize: 16, LowRank: 32}
	want := BuildPixelflyMM(GC200(), pcfg, 4).Graph
	for build := 1; build < 8; build++ {
		got := BuildPixelflyMM(GC200(), pcfg, 4).Graph
		if len(got.CSs) != len(want.CSs) {
			t.Fatalf("build %d: %d compute sets, want %d", build, len(got.CSs), len(want.CSs))
		}
		for c, wcs := range want.CSs {
			gcs := got.CSs[c]
			if gcs.Name != wcs.Name || len(gcs.Vertices) != len(wcs.Vertices) {
				t.Fatalf("build %d: compute set %d is %q with %d vertices, want %q with %d",
					build, c, gcs.Name, len(gcs.Vertices), wcs.Name, len(wcs.Vertices))
			}
			for i, wv := range wcs.Vertices {
				if gv := gcs.Vertices[i]; !sameVertex(gv, wv) {
					t.Fatalf("build %d: %s vertex %d is %s, want %s", build, wcs.Name, i, describeVertex(gv), describeVertex(wv))
				}
			}
		}
	}
}

// describeVertex names a vertex by its codelet, tile and first regions.
func describeVertex(v *Vertex) string {
	first := func(rs []VarRegion) string {
		if len(rs) == 0 {
			return "none"
		}
		return fmt.Sprintf("%+v of %d", rs[0], len(rs))
	}
	return fmt.Sprintf("%s on tile %d, inputs %s, outputs %s", v.Codelet, v.Tile, first(v.Inputs), first(v.Outputs))
}

func sameVertex(a, b *Vertex) bool {
	return a.Codelet == b.Codelet && a.Class == b.Class && a.Tile == b.Tile && a.Flops == b.Flops &&
		sameRegions(a.Inputs, b.Inputs) && sameRegions(a.Outputs, b.Outputs)
}

func sameRegions(a, b []VarRegion) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompileRepricesReplacedMapping compiles one graph twice, which must
// give equal results, and then replaces a mapping the first Compile
// defaulted to linear: once through SetTileMapping and once by assigning
// Variable.Mapping. Compile reads whether a mapping is linear from the
// mapping itself, so the next Compile must price the new mapping, exactly
// as the map oracle does.
func TestCompileRepricesReplacedMapping(t *testing.T) {
	cfg := GC200()
	build := func() *Graph { return BuildLinear(cfg, 256, 4).Graph }
	g := build()
	first, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("compiling one graph twice gave different results")
	}

	// The activation A (variable 0, 1,024 elements on 1,024 tiles) moves
	// whole onto tile 7.
	pinned := func(v *Variable) []Interval { return []Interval{{Tile: 7, Start: 0, End: v.Elems}} }
	for _, c := range []struct {
		name    string
		replace func(g *Graph)
	}{
		{"SetTileMapping", func(g *Graph) {
			if err := g.SetTileMapping(0, pinned(g.Vars[0])); err != nil {
				t.Fatal(err)
			}
		}},
		{"assignment", func(g *Graph) { g.Vars[0].Mapping = pinned(g.Vars[0]) }},
	} {
		// Both graphs checkAgainstMap builds are compiled once under the
		// default mapping before it is replaced.
		checkAgainstMap(t, c.name, func() *Graph {
			g := build()
			if _, err := Compile(g); err != nil {
				t.Fatal(err)
			}
			c.replace(g)
			return g
		})
		g := build()
		if _, err := Compile(g); err != nil {
			t.Fatal(err)
		}
		c.replace(g)
		moved, err := Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		if moved.PerTile[7] == first.PerTile[7] || reflect.DeepEqual(Simulate(moved), Simulate(first)) {
			t.Fatalf("%s: the replaced mapping priced as the linear one", c.name)
		}
	}
}
