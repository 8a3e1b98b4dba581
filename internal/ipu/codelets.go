package ipu

import (
	"fmt"
	"math"

	"repro/internal/pixelfly"
)

// Workload couples a graph with the useful arithmetic it performs, so
// benchmarks can report GFLOP/s. For sparse workloads DenseEquivFlops
// counts the flops of the dense computation being replaced (the
// convention behind Table 2's starred sparse numbers).
type Workload struct {
	Name            string
	Graph           *Graph
	Flops           float64 // arithmetic actually executed
	DenseEquivFlops float64 // dense-equivalent work (== Flops when dense)
	HostBytes       float64 // host traffic when run PopTorch-style
}

// MatMulVariant selects among the paper's Table 2 IPU implementations.
type MatMulVariant int

const (
	// MMNaive: one scalar vertex per output row reading all of B.
	MMNaive MatMulVariant = iota
	// MMBlocked: hand-written block decomposition with explicit operand
	// copies (the variant the paper found drowning in temporary data).
	MMBlocked
	// MMPoplin: the vendor library plan — 2D output grid, K sliced into
	// accumulation stages, AMP vertices.
	MMPoplin
)

func (v MatMulVariant) String() string {
	switch v {
	case MMNaive:
		return "naive"
	case MMBlocked:
		return "blocked"
	case MMPoplin:
		return "poplin"
	default:
		return fmt.Sprintf("MatMulVariant(%d)", int(v))
	}
}

// poplinKSlice is the K-dimension accumulation depth of one compute set;
// matmuls with K beyond this get several chained compute sets, which is
// the mechanism behind Fig. 5/7's compute-set growth.
const poplinKSlice = 512

// ampGrain is the AMP systolic granularity: output blocks smaller than
// this waste AMP issue slots.
const ampGrain = 16

// BuildDenseMatMul constructs the graph of C(m×n) = A(m×k)·B(k×n).
// B is treated as column-major (poplin pre-arranges operands), so both A
// row-slices and B column-slices are contiguous regions.
func BuildDenseMatMul(cfg Config, m, k, n int, variant MatMulVariant) *Workload {
	g := NewGraph(cfg)
	a := g.AddVariable("A", m*k, 4)
	b := g.AddVariable("B", k*n, 4) // column-major: column j at [j*k, (j+1)*k)
	c := g.AddVariable("C", m*n, 4)
	flops := 2 * float64(m) * float64(n) * float64(k)
	w := &Workload{Name: fmt.Sprintf("matmul-%s-%dx%dx%d", variant, m, k, n),
		Graph: g, Flops: flops, DenseEquivFlops: flops,
		HostBytes: float64((m*k + k*n + m*n) * 4)}

	switch variant {
	case MMNaive:
		cs := g.AddComputeSet("matmul.naive")
		for i := 0; i < m; i++ {
			tile := i % cfg.Tiles
			g.AddVertex(cs, "NaiveRowMAC", ClassScalar, tile,
				[]VarRegion{
					{Var: a, Start: i * k, End: (i + 1) * k},
					{Var: b, Start: 0, End: k * n}, // the whole of B: the broadcast that kills this variant
				},
				[]VarRegion{{Var: c, Start: i * n, End: (i + 1) * n}},
				2*float64(k)*float64(n))
		}
		g.Execute(cs)

	case MMPoplin, MMBlocked:
		class := ClassAMP
		codelet := "PoplinAMPBlock"
		var p, q int
		if variant == MMBlocked {
			// The paper's hand-written blocked kernel: a fixed 16×16 block
			// grid (so at most 256 tiles do MAC work), an unvectorized
			// inner loop, and explicit staging copies of every operand
			// block — the "too much temporal data being allocated and many
			// copies taking place" pathology of Table 2's Note 3.
			class = ClassScalar
			codelet = "BlockedMAC"
			p = clamp(ceilDiv(m, ampGrain), 1, 16)
			q = clamp(ceilDiv(n, ampGrain), 1, 16)
		} else {
			// Poplin adapts the output grid to the aspect ratio so skewed
			// matmuls still occupy (nearly) every tile — the reason Fig. 4
			// finds the IPU stable where the GPU's fixed tile shapes
			// quantize badly.
			p = int(math.Sqrt(float64(cfg.Tiles) * float64(m) / float64(n)))
			p = clamp(p, 1, m)
			q = clamp(cfg.Tiles/p, 1, n)
		}
		bm, bn := ceilDiv(m, p), ceilDiv(n, q)
		// Output blocks narrower than the AMP systolic granularity waste
		// issue slots.
		ampWaste := 1.0
		if class == ClassAMP && bm < ampGrain {
			ampWaste = float64(ampGrain) / float64(bm)
		}
		slices := ceilDiv(k, poplinKSlice)
		for s := 0; s < slices; s++ {
			k0 := s * poplinKSlice
			k1 := min(k0+poplinKSlice, k)
			kc := k1 - k0
			var tmpA, tmpB VarID
			if variant == MMBlocked {
				// Stage every operand block into per-slice temporaries.
				tmpA = g.AddVariable(fmt.Sprintf("tmpA.%d", s), m*kc, 4)
				tmpB = g.AddVariable(fmt.Sprintf("tmpB.%d", s), kc*n, 4)
				copyCS := g.AddComputeSet(fmt.Sprintf("matmul.copy.%d", s))
				for bi := 0; bi < p; bi++ {
					tile := (bi * q) % cfg.Tiles
					r0, r1 := bi*bm, min((bi+1)*bm, m)
					if r0 >= r1 {
						continue
					}
					var ins, outs []VarRegion
					for r := r0; r < r1; r++ {
						ins = append(ins, VarRegion{Var: a, Start: r*k + k0, End: r*k + k1})
						outs = append(outs, VarRegion{Var: tmpA, Start: r * kc, End: (r + 1) * kc})
					}
					g.AddVertex(copyCS, "StageCopy", ClassCopy, tile, ins, outs,
						float64((r1-r0)*kc*4))
				}
				for bj := 0; bj < q; bj++ {
					tile := bj % cfg.Tiles
					c0, c1 := bj*bn, min((bj+1)*bn, n)
					if c0 >= c1 {
						continue
					}
					var ins, outs []VarRegion
					for cc := c0; cc < c1; cc++ {
						ins = append(ins, VarRegion{Var: b, Start: cc*k + k0, End: cc*k + k1})
						outs = append(outs, VarRegion{Var: tmpB, Start: cc * kc, End: (cc + 1) * kc})
					}
					g.AddVertex(copyCS, "StageCopy", ClassCopy, tile, ins, outs,
						float64((c1-c0)*kc*4))
				}
				g.Execute(copyCS)
			}
			cs := g.AddComputeSet(fmt.Sprintf("matmul.%s.%d", variant, s))
			for bi := 0; bi < p; bi++ {
				for bj := 0; bj < q; bj++ {
					tile := (bi*q + bj) % cfg.Tiles
					r0, r1 := bi*bm, min((bi+1)*bm, m)
					c0, c1 := bj*bn, min((bj+1)*bn, n)
					if r0 >= r1 || c0 >= c1 {
						continue
					}
					var ins []VarRegion
					if variant == MMBlocked {
						// Read the staged temporaries (contiguous per slice).
						ins = append(ins,
							VarRegion{Var: tmpA, Start: r0 * kc, End: r1 * kc},
							VarRegion{Var: tmpB, Start: c0 * kc, End: c1 * kc})
					} else {
						// A rows r0..r1, K slice [k0,k1): one region per row.
						ins = make([]VarRegion, 0, (r1-r0)+(c1-c0))
						for r := r0; r < r1; r++ {
							ins = append(ins, VarRegion{Var: a, Start: r*k + k0, End: r*k + k1})
						}
						// B (column-major) columns c0..c1, K slice: region per column.
						for cc := c0; cc < c1; cc++ {
							ins = append(ins, VarRegion{Var: b, Start: cc*k + k0, End: cc*k + k1})
						}
					}
					outs := make([]VarRegion, 0, r1-r0)
					for r := r0; r < r1; r++ {
						outs = append(outs, VarRegion{Var: c, Start: r*n + c0, End: r*n + c1})
					}
					vflops := 2 * float64(r1-r0) * float64(c1-c0) * float64(kc) * ampWaste
					g.AddVertex(cs, codelet, class, tile, ins, outs, vflops)
				}
			}
			g.Execute(cs)
		}
	}
	return w
}

// BuildSparseMM constructs CSR×dense SpMM: S(n×n, given density)·B(n×n).
// Rows are distributed across tiles popsparse-style; the SIMD pipeline's
// utilization improves with density (gather-dominated at extreme
// sparsity).
func BuildSparseMM(cfg Config, n int, density float64) *Workload {
	g := NewGraph(cfg)
	nnz := int(density * float64(n) * float64(n))
	if nnz < 1 {
		nnz = 1
	}
	vals := g.AddVariable("S.values", nnz, 4)
	cols := g.AddVariable("S.colidx", nnz, 4)
	rowp := g.AddVariable("S.rowptr", n+1, 4)
	b := g.AddVariable("B", n*n, 4)
	c := g.AddVariable("C", n*n, 4)

	realFlops := 2 * float64(nnz) * float64(n)
	dense := 2 * float64(n) * float64(n) * float64(n)
	w := &Workload{Name: fmt.Sprintf("spmm-%dx%d-d%.2f", n, n, density),
		Graph: g, Flops: realFlops, DenseEquivFlops: dense,
		HostBytes: float64((2*nnz + n + 1 + 2*n*n) * 4)}

	// Utilization of the SIMD pipeline rises with density: at 1% the
	// codelet is gather-bound, at 10% it vectorizes decently. Calibrated
	// against Table 2's popsparse columns.
	util := 0.2 + 1.2*density
	if util > 0.9 {
		util = 0.9
	}

	// 2D partition popsparse-style: row groups × column panels, so each
	// vertex gathers only its panel of B (column-major: panel contiguous).
	cs := g.AddComputeSet("spmm.popsparse")
	panels := 32
	if panels > n {
		panels = n
	}
	rowGroups := min(cfg.Tiles/panels, n)
	if rowGroups < 1 {
		rowGroups = 1
	}
	rowsPer := ceilDiv(n, rowGroups)
	colsPer := ceilDiv(n, panels)
	nnzPer := ceilDiv(nnz, rowGroups)
	for rg := 0; rg < rowGroups; rg++ {
		r0 := rg * rowsPer
		r1 := min(r0+rowsPer, n)
		if r0 >= r1 {
			break
		}
		v0 := min(rg*nnzPer, nnz)
		v1 := min(v0+nnzPer, nnz)
		for pn := 0; pn < panels; pn++ {
			c0 := pn * colsPer
			c1 := min(c0+colsPer, n)
			if c0 >= c1 {
				continue
			}
			tile := (rg*panels + pn) % cfg.Tiles
			ins := []VarRegion{
				{Var: vals, Start: v0, End: v1},
				{Var: cols, Start: v0, End: v1},
				{Var: rowp, Start: r0, End: r1 + 1},
				{Var: b, Start: c0 * n, End: c1 * n}, // B panel (column-major)
			}
			outs := []VarRegion{{Var: c, Start: r0*n + c0, End: r0*n + c1}}
			vflops := 2 * float64(v1-v0) * float64(c1-c0) / util
			g.AddVertex(cs, "SparseDenseRowMAC", ClassSIMD, tile, ins, outs, vflops)
		}
	}
	g.Execute(cs)
	return w
}

// BuildButterflyMM builds the butterfly layer applied to a batch: log2(N)
// compute sets, one per factor, with a ping-pong activation pair. Data is
// stored feature-major (a feature's whole batch is contiguous), so stage s
// exchanges exactly the features whose partner lives on another tile —
// exchange volume depends on size, not placement (Observation 1).
func BuildButterflyMM(cfg Config, n, batch int) *Workload {
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("ipu: butterfly size %d not a power of two", n))
	}
	g := NewGraph(cfg)
	x0 := g.AddVariable("X.ping", n*batch, 4)
	x1 := g.AddVariable("X.pong", n*batch, 4)
	stages := 0
	for v := n; v > 1; v >>= 1 {
		stages++
	}
	flops := 6 * float64(n/2) * float64(stages) * float64(batch)
	w := &Workload{Name: fmt.Sprintf("butterfly-%d-b%d", n, batch),
		Graph: g, Flops: flops,
		DenseEquivFlops: 2 * float64(n) * float64(n) * float64(batch),
		HostBytes:       float64(2 * n * batch * 4)}

	tiles := min(cfg.Tiles, n/2)
	pairsPer := ceilDiv(n/2, tiles)
	src, dst := x0, x1
	// The plain-PyTorch butterfly (the implementation the paper uses on
	// the IPU) lowers each stage to several framework primitives —
	// reshape, index, bmm, permute — which PopTorch compiles into extra
	// small compute sets around the arithmetic one.
	scratch := newLoweringScratch(g)
	for s := 1; s <= stages; s++ {
		addLoweringCS(g, fmt.Sprintf("butterfly.lower.%d", s), scratch, 4)
		coef := g.AddVariable(fmt.Sprintf("bf.coef.%d", s), 2*n, 4)
		cs := g.AddComputeSet(fmt.Sprintf("butterfly.stage%d", s))
		half := 1 << (s - 1)
		block := half << 1
		for t := 0; t < tiles; t++ {
			p0 := t * pairsPer
			p1 := min(p0+pairsPer, n/2)
			if p0 >= p1 {
				break
			}
			ins := make([]VarRegion, 0, 2*(p1-p0)+1) // both halves of every pair, then the coefficients
			outs := make([]VarRegion, 0, 2*(p1-p0))
			for p := p0; p < p1; p++ {
				blockIdx := p / half
				kk := p % half
				top := blockIdx*block + kk
				bot := top + half
				ins = append(ins,
					VarRegion{Var: src, Start: top * batch, End: (top + 1) * batch},
					VarRegion{Var: src, Start: bot * batch, End: (bot + 1) * batch})
				outs = append(outs,
					VarRegion{Var: dst, Start: top * batch, End: (top + 1) * batch},
					VarRegion{Var: dst, Start: bot * batch, End: (bot + 1) * batch})
			}
			ins = append(ins, VarRegion{Var: coef, Start: p0 * 4, End: p1 * 4})
			g.AddVertex(cs, "ButterflyPairMAC", ClassSIMD, t, ins, outs,
				6*float64(p1-p0)*float64(batch))
		}
		g.Execute(cs)
		src, dst = dst, src
	}
	return w
}

// BuildPixelflyMM builds the pixelated-butterfly layer on a batch: one
// block-sparse MAC compute set, a partial-sum reduction, two poplin
// matmuls for the low-rank term (these use the AMP), and a final add.
// Compared to butterfly it has fewer, fatter compute sets but more
// variables and temporaries — the space-complexity escalation Section 4.1
// observes.
func BuildPixelflyMM(cfg Config, pcfg pixelfly.Config, batch int) *Workload {
	if err := pcfg.Validate(); err != nil {
		panic(err)
	}
	n := pcfg.N
	bs := pcfg.BlockSize
	support := pcfg.SupportBlocks()
	g := NewGraph(cfg)
	x := g.AddVariable("X", n*batch, 4) // feature-major
	wvar := g.AddVariable("W.blocks", len(support)*bs*bs, 4)
	partial := g.AddVariable("partials", len(support)*bs*batch, 4)
	y := g.AddVariable("Y", n*batch, 4)

	bsrFlops := 2 * float64(len(support)) * float64(bs*bs) * float64(batch)
	lrFlops := 4 * float64(n) * float64(pcfg.LowRank) * float64(batch)
	w := &Workload{Name: fmt.Sprintf("pixelfly-%d-b%d", n, batch),
		Graph: g, Flops: bsrFlops + lrFlops,
		DenseEquivFlops: 2 * float64(n) * float64(n) * float64(batch),
		HostBytes:       float64(2 * n * batch * 4)}

	// The pure-torch pixelfly implementation (the gist the paper falls
	// back to) loops over the butterfly factor groups in Python; each
	// group's gather / bmm / scatter_add / view chain lowers to a stack of
	// framework primitives under PopTorch. This lowering overhead — absent
	// on the GPU, where the same ops fuse into a handful of kernels — is
	// the mechanism behind Table 4's pixelfly slowdown on the IPU.
	scratch := newLoweringScratch(g)
	groups := 0
	for v := pcfg.ButterflySize; v > 1; v >>= 1 {
		groups++
	}
	// The gather/scatter index tensors grow with the stretch factor
	// (block-grid width over butterfly network size): smaller blocks mean
	// more blocks per butterfly edge, and PopTorch splits the indexing
	// into correspondingly more steps. This is why Table 5 finds block
	// size the dominant knob for execution time.
	stretch := (n / bs) / pcfg.ButterflySize
	if stretch < 1 {
		stretch = 1
	}
	auxPerGroup := 8 + 4*stretch
	for grp := 0; grp < groups; grp++ {
		addLoweringCS(g, fmt.Sprintf("pixelfly.lower.%d", grp), scratch, auxPerGroup)
	}

	// CS1: block MACs. Each stored block is split along the batch dimension
	// so the work spreads over all tiles rather than one tile per block.
	mac := g.AddComputeSet("pixelfly.blockmac")
	batchSlices := clamp(cfg.Tiles/max(1, len(support)), 1, batch)
	sliceLen := ceilDiv(batch, batchSlices)
	for i, blk := range support {
		bj := blk[1]
		for sl := 0; sl < batchSlices; sl++ {
			b0 := sl * sliceLen
			b1 := min(b0+sliceLen, batch)
			if b0 >= b1 {
				break
			}
			tile := (i*batchSlices + sl) % cfg.Tiles
			// X stored feature-major: the batch slice of one feature is a
			// sub-range of that feature's contiguous column.
			ins := make([]VarRegion, 0, bs+1)
			for f := bj * bs; f < (bj+1)*bs; f++ {
				ins = append(ins, VarRegion{Var: x, Start: f*batch + b0, End: f*batch + b1})
			}
			ins = append(ins, VarRegion{Var: wvar, Start: i * bs * bs, End: (i + 1) * bs * bs})
			outs := make([]VarRegion, bs)
			for r := range outs {
				outs[r] = VarRegion{Var: partial,
					Start: (i*bs+r)*batch + b0, End: (i*bs+r)*batch + b1}
			}
			g.AddVertex(mac, "BSRBlockMAC", ClassSIMD, tile, ins, outs,
				2*float64(bs*bs)*float64(b1-b0))
		}
	}
	g.Execute(mac)

	// CS2: reduce partials into block rows of Y, batch-sliced the same way,
	// block rows in ascending order so that every build adds the same
	// vertices in the same order.
	reduce := g.AddComputeSet("pixelfly.reduce")
	perRow := make([][]int, n/bs)
	for i, blk := range support {
		perRow[blk[0]] = append(perRow[blk[0]], i)
	}
	for bi, list := range perRow {
		for sl := 0; sl < batchSlices; sl++ {
			b0 := sl * sliceLen
			b1 := min(b0+sliceLen, batch)
			if b0 >= b1 {
				break
			}
			tile := (bi*batchSlices + sl) % cfg.Tiles
			ins := make([]VarRegion, 0, len(list)*bs)
			for _, i := range list {
				for r := 0; r < bs; r++ {
					ins = append(ins, VarRegion{Var: partial,
						Start: (i*bs+r)*batch + b0, End: (i*bs+r)*batch + b1})
				}
			}
			outs := make([]VarRegion, bs)
			for r := range outs {
				outs[r] = VarRegion{Var: y,
					Start: (bi*bs+r)*batch + b0, End: (bi*bs+r)*batch + b1}
			}
			g.AddVertex(reduce, "PartialReduce", ClassSIMD, tile, ins, outs,
				float64(len(list))*float64(bs)*float64(b1-b0))
		}
	}
	g.Execute(reduce)

	// CS3+CS4: low-rank term via two AMP matmuls (t = Vᵀx; y += U·t).
	if pcfg.LowRank > 0 {
		r := pcfg.LowRank
		vvar := g.AddVariable("V", n*r, 4)
		uvar := g.AddVariable("U", n*r, 4)
		tvar := g.AddVariable("t", r*batch, 4)
		lr1 := g.AddComputeSet("pixelfly.lowrank.vx")
		tiles := min(cfg.Tiles, r)
		for t := 0; t < tiles; t++ {
			rr0 := t * ceilDiv(r, tiles)
			rr1 := min(rr0+ceilDiv(r, tiles), r)
			if rr0 >= rr1 {
				break
			}
			g.AddVertex(lr1, "PoplinAMPBlock", ClassAMP, t,
				[]VarRegion{
					{Var: vvar, Start: rr0 * n, End: rr1 * n},
					{Var: x, Start: 0, End: n * batch},
				},
				[]VarRegion{{Var: tvar, Start: rr0 * batch, End: rr1 * batch}},
				2*float64(rr1-rr0)*float64(n)*float64(batch))
		}
		g.Execute(lr1)
		lr2 := g.AddComputeSet("pixelfly.lowrank.ut")
		rowTiles := min(cfg.Tiles, n/ampGrain)
		rowsPer := ceilDiv(n, rowTiles)
		for t := 0; t < rowTiles; t++ {
			n0 := t * rowsPer
			n1 := min(n0+rowsPer, n)
			if n0 >= n1 {
				break
			}
			g.AddVertex(lr2, "PoplinAMPBlock", ClassAMP, t,
				[]VarRegion{
					{Var: uvar, Start: n0 * r, End: n1 * r},
					{Var: tvar, Start: 0, End: r * batch},
				},
				[]VarRegion{{Var: y, Start: n0 * batch, End: n1 * batch}},
				2*float64(n1-n0)*float64(r)*float64(batch))
		}
		g.Execute(lr2)
	}
	return w
}

// BuildLinear builds the torch.nn.Linear workload Y(batch×n) = X·W + bias
// using the poplin plan plus a bias compute set.
func BuildLinear(cfg Config, n, batch int) *Workload {
	w := BuildDenseMatMul(cfg, batch, n, n, MMPoplin)
	g := w.Graph
	bias := g.AddVariable("bias", n, 4)
	yv := VarID(2) // C of the matmul
	cs := g.AddComputeSet("linear.biasadd")
	tiles := min(cfg.Tiles, batch)
	rowsPer := ceilDiv(batch, tiles)
	for t := 0; t < tiles; t++ {
		r0 := t * rowsPer
		r1 := min(r0+rowsPer, batch)
		if r0 >= r1 {
			break
		}
		g.AddVertex(cs, "BiasAdd", ClassSIMD, t,
			[]VarRegion{
				{Var: yv, Start: r0 * n, End: r1 * n},
				{Var: bias, Start: 0, End: n},
			},
			[]VarRegion{{Var: yv, Start: r0 * n, End: r1 * n}},
			float64((r1-r0)*n))
	}
	g.Execute(cs)
	w.Name = fmt.Sprintf("linear-%d-b%d", n, batch)
	w.HostBytes = float64(2 * n * batch * 4) // activations only; weights resident
	return w
}

// newLoweringScratch allocates the small tile-0-resident buffer the
// lowering compute sets shuffle.
func newLoweringScratch(g *Graph) VarID {
	scratch := g.AddVariable("lowering.scratch", 1024, 4)
	if err := g.SetTileMapping(scratch, []Interval{{Tile: 0, Start: 0, End: 1024}}); err != nil {
		panic(err)
	}
	return scratch
}

// addLoweringCS appends `count` control-flow compute sets that model the
// PopTorch lowering of framework primitives (views, index_select,
// scatter) — negligible data movement, but each is a separate BSP step
// paying sync and dispatch. This is the overhead mechanism behind Table
// 4's slow Fastfood and Pixelfly rows on the IPU.
func addLoweringCS(g *Graph, name string, scratch VarID, count int) {
	for i := 0; i < count; i++ {
		cs := g.AddComputeSet(fmt.Sprintf("%s.%d", name, i))
		for t := 0; t < 4; t++ {
			g.AddVertex(cs, "FrameworkPrimitive", ClassCopy, t%g.Config.Tiles,
				[]VarRegion{{Var: scratch, Start: 0, End: 256}},
				[]VarRegion{{Var: scratch, Start: 256, End: 512}},
				256)
		}
		g.Execute(cs)
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
