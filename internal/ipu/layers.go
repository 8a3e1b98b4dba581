package ipu

import (
	"fmt"
	"math"
)

// BuildLowRank builds the rank-r layer y = U·(Vᵀ·x) on a batch: two small
// AMP matmuls (2 compute sets). Maps well to the IPU — Table 4 measures
// low-rank as the fastest method there.
func BuildLowRank(cfg Config, n, rank, batch int) *Workload {
	g := NewGraph(cfg)
	x := g.AddVariable("X", n*batch, 4)
	u := g.AddVariable("U", n*rank, 4)
	v := g.AddVariable("V", n*rank, 4)
	tvar := g.AddVariable("t", rank*batch, 4)
	y := g.AddVariable("Y", n*batch, 4)
	flops := 4 * float64(n) * float64(rank) * float64(batch)
	w := &Workload{Name: fmt.Sprintf("lowrank-%d-r%d-b%d", n, rank, batch),
		Graph: g, Flops: flops,
		DenseEquivFlops: 2 * float64(n) * float64(n) * float64(batch),
		HostBytes:       float64(2 * n * batch * 4)}

	cs1 := g.AddComputeSet("lowrank.vx")
	tiles := min(cfg.Tiles, max(1, rank))
	per := ceilDiv(rank, tiles)
	for t := 0; t < tiles; t++ {
		r0 := t * per
		r1 := min(r0+per, rank)
		if r0 >= r1 {
			break
		}
		g.AddVertex(cs1, "PoplinAMPBlock", ClassAMP, t,
			[]VarRegion{
				{Var: v, Start: r0 * n, End: r1 * n},
				{Var: x, Start: 0, End: n * batch},
			},
			[]VarRegion{{Var: tvar, Start: r0 * batch, End: r1 * batch}},
			2*float64(r1-r0)*float64(n)*float64(batch))
	}
	g.Execute(cs1)

	cs2 := g.AddComputeSet("lowrank.ut")
	rowTiles := min(cfg.Tiles, ceilDiv(n, ampGrain))
	rowsPer := ceilDiv(n, rowTiles)
	for t := 0; t < rowTiles; t++ {
		n0 := t * rowsPer
		n1 := min(n0+rowsPer, n)
		if n0 >= n1 {
			break
		}
		g.AddVertex(cs2, "PoplinAMPBlock", ClassAMP, t,
			[]VarRegion{
				{Var: u, Start: n0 * rank, End: n1 * rank},
				{Var: tvar, Start: 0, End: rank * batch},
			},
			[]VarRegion{{Var: y, Start: n0 * batch, End: n1 * batch}},
			2*float64(n1-n0)*float64(rank)*float64(batch))
	}
	g.Execute(cs2)
	return w
}

// BuildCirculant builds the FFT-based circulant layer: forward FFT,
// pointwise complex multiply, inverse FFT — three fused compute-set
// groups, the way poplibs implements batched transforms. The SIMD class
// models the lack of AMP help for FFT data flow.
func BuildCirculant(cfg Config, n, batch int) *Workload {
	g := NewGraph(cfg)
	x := g.AddVariable("X", n*batch, 4)
	spec := g.AddVariable("spectrum", 2*n*batch, 4) // interleaved complex
	kern := g.AddVariable("kernelFFT", 2*n, 4)
	y := g.AddVariable("Y", n*batch, 4)
	logN := int(math.Log2(float64(n)))
	// 5·N·log2 N real flops per FFT per sample; 3 transforms + pointwise.
	flops := (3*5*float64(n)*float64(logN) + 6*float64(n)) * float64(batch)
	w := &Workload{Name: fmt.Sprintf("circulant-%d-b%d", n, batch),
		Graph: g, Flops: flops,
		DenseEquivFlops: 2 * float64(n) * float64(n) * float64(batch),
		HostBytes:       float64(2 * n * batch * 4)}

	tiles := min(cfg.Tiles, batch)
	per := ceilDiv(batch, tiles)
	addStage := func(name string, in, out VarID, inW, outW int, stageFlops float64) {
		cs := g.AddComputeSet(name)
		for t := 0; t < tiles; t++ {
			b0 := t * per
			b1 := min(b0+per, batch)
			if b0 >= b1 {
				break
			}
			ins := []VarRegion{{Var: in, Start: b0 * inW, End: b1 * inW}}
			if name == "circ.pointwise" {
				ins = append(ins, VarRegion{Var: kern, Start: 0, End: 2 * n})
			}
			g.AddVertex(cs, name, ClassSIMD, t, ins,
				[]VarRegion{{Var: out, Start: b0 * outW, End: b1 * outW}},
				stageFlops*float64(b1-b0))
		}
		g.Execute(cs)
	}
	fftFlops := 5 * float64(n) * float64(logN)
	addStage("circ.fft", x, spec, n, 2*n, fftFlops)
	addStage("circ.pointwise", spec, spec, 2*n, 2*n, 6*float64(n))
	addStage("circ.ifft", spec, y, 2*n, n, fftFlops)
	return w
}

// BuildFastfood builds S·H·G·Π·H·B on a batch. Each FWHT butterfly stage
// is its own compute set (2·log2 N of them) plus the three diagonal
// scalings and the permutation — the longest program of all the methods,
// which is why Table 4 measures Fastfood as the slowest on the IPU.
func BuildFastfood(cfg Config, n, batch int) *Workload {
	g := NewGraph(cfg)
	x0 := g.AddVariable("X.ping", n*batch, 4)
	x1 := g.AddVariable("X.pong", n*batch, 4)
	diag := g.AddVariable("SGB", 3*n, 4)
	logN := int(math.Log2(float64(n)))
	flops := (2*float64(n)*float64(logN) + 3*float64(n)) * float64(batch)
	w := &Workload{Name: fmt.Sprintf("fastfood-%d-b%d", n, batch),
		Graph: g, Flops: flops,
		DenseEquivFlops: 2 * float64(n) * float64(n) * float64(batch),
		HostBytes:       float64(2 * n * batch * 4)}

	tiles := min(cfg.Tiles, n/2)
	src, dst := x0, x1
	diagCS := func(name string, which int) {
		cs := g.AddComputeSet(name)
		per := ceilDiv(n, tiles)
		for t := 0; t < tiles; t++ {
			f0 := t * per
			f1 := min(f0+per, n)
			if f0 >= f1 {
				break
			}
			g.AddVertex(cs, name, ClassSIMD, t,
				[]VarRegion{
					{Var: src, Start: f0 * batch, End: f1 * batch},
					{Var: diag, Start: which*n + f0, End: which*n + f1},
				},
				[]VarRegion{{Var: dst, Start: f0 * batch, End: f1 * batch}},
				float64((f1-f0)*batch)*2)
		}
		g.Execute(cs)
		src, dst = dst, src
	}
	fwhtStage := func(s int, tag string) {
		cs := g.AddComputeSet(fmt.Sprintf("ff.fwht%s.%d", tag, s))
		half := 1 << (s - 1)
		block := half << 1
		pairsPer := ceilDiv(n/2, tiles)
		for t := 0; t < tiles; t++ {
			p0 := t * pairsPer
			p1 := min(p0+pairsPer, n/2)
			if p0 >= p1 {
				break
			}
			ins := make([]VarRegion, 0, 2*(p1-p0))
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
			g.AddVertex(cs, "FWHTPair", ClassSIMD, t, ins, outs,
				2*float64(p1-p0)*float64(batch))
		}
		g.Execute(cs)
		src, dst = dst, src
	}
	permCS := func() {
		cs := g.AddComputeSet("ff.permute")
		per := ceilDiv(n, tiles)
		for t := 0; t < tiles; t++ {
			f0 := t * per
			f1 := min(f0+per, n)
			if f0 >= f1 {
				break
			}
			g.AddVertex(cs, "Permute", ClassCopy, t,
				[]VarRegion{{Var: src, Start: f0 * batch, End: f1 * batch}},
				[]VarRegion{{Var: dst, Start: f0 * batch, End: f1 * batch}},
				float64((f1-f0)*batch*4))
		}
		g.Execute(cs)
		src, dst = dst, src
	}

	// Each FWHT stage in plain PyTorch lowers to several framework
	// primitives on the IPU (no native FWHT; the paper notes FFT-library
	// compatibility problems) — the reason Table 4 measures Fastfood as
	// the slowest IPU method.
	scratch := newLoweringScratch(g)
	diagCS("ff.scaleB", 2)
	for s := 1; s <= logN; s++ {
		addLoweringCS(g, fmt.Sprintf("ff.lower1.%d", s), scratch, 6)
		fwhtStage(s, "1")
	}
	permCS()
	diagCS("ff.scaleG", 1)
	for s := 1; s <= logN; s++ {
		addLoweringCS(g, fmt.Sprintf("ff.lower2.%d", s), scratch, 6)
		fwhtStage(s, "2")
	}
	diagCS("ff.scaleS", 0)
	return w
}
