package shard

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/butterfly"
	"repro/internal/nn"
	"repro/internal/pixelfly"
	"repro/internal/tensor"
	"repro/internal/tensor/microkernel"
)

// lowerTensorParallel lowers every step of the lowering into per-shard
// column-slice kernels, which pack their own weight windows, so the
// lowering need not be packed. It fails (sending the planner to pipeline)
// as soon as one layer is not splittable. Fused steps survive the split
// because their folded bias and activation are column-local: each shard's
// final micro-step applies the epilogue inside its own column window, and
// only the (unchanged) exchange stages stay barriers.
func lowerTensorParallel(low *nn.Lowering, shards int) ([]step, error) {
	if shards == 1 {
		// A 1-shard split is the identity placement; reuse the pipeline
		// lowering, which runs every step unchanged on IPU 0.
		return lowerPipeline(low, 1)
	}
	var steps []step
	inW := low.InputWidth()
	for i := 0; i < low.NumSteps(); i++ {
		info := low.Step(i)
		l := info.Layer
		outW := info.Cols
		if err := canSplit(l, outW, shards); err != nil {
			return nil, fmt.Errorf("shard: step %d (%s): %w", i, info.Name, err)
		}
		ss := splitStep(l, info.Activation(), inW, outW, shards)
		for j := range ss {
			ss[j].src = i
		}
		steps = append(steps, ss...)
		inW = outW
	}
	return steps, nil
}

// canSplit reports whether a layer admits a tensor-parallel column split
// at the given shard count. The checks here are the single source of truth
// the cost planner consults, so the estimate can never disagree with the
// lowering.
func canSplit(l nn.Layer, outW, shards int) error {
	if shards == 1 {
		return nil // a 1-shard "split" is the identity lowering
	}
	switch t := l.(type) {
	case *nn.Dense:
		if t.Out < shards {
			return fmt.Errorf("dense output width %d < %d shards", t.Out, shards)
		}
		return nil
	case *nn.ReLU:
		return nil
	case *nn.FactorizedDense:
		if t.Out < shards {
			return fmt.Errorf("factorized output width %d < %d shards", t.Out, shards)
		}
		return nil
	case *nn.StructuredLinear:
		switch tr := t.T.(type) {
		case *butterfly.Butterfly:
			if tr.N%shards != 0 {
				return fmt.Errorf("butterfly width %d not divisible by %d shards", tr.N, shards)
			}
			return nil
		case *baselines.LowRank:
			if tr.N < shards {
				return fmt.Errorf("low-rank width %d < %d shards", tr.N, shards)
			}
			return nil
		case *pixelfly.Pixelfly:
			if tr.Cfg.N%(shards*tr.Cfg.BlockSize) != 0 {
				return fmt.Errorf("pixelfly slice width %d not block-aligned (block %d)",
					tr.Cfg.N/shards, tr.Cfg.BlockSize)
			}
			return nil
		default:
			// Fastfood and circulant mix every input feature into every
			// output (Hadamard sweeps / FFT), so a column slice of the
			// output still needs the full O(N log N) pass — no memory or
			// compute is saved by splitting them.
			return fmt.Errorf("transform %T is not column-splittable", t.T)
		}
	default:
		return fmt.Errorf("layer %T is not column-splittable", l)
	}
}

// splitStep lowers one layer to its tensor-parallel micro-steps, folding
// the step's fused activation (ActNone for unfused steps) into each
// shard's final column-window kernel. The dense-family splits pack their
// per-shard weight slices for the tiled matmul window kernel, and the
// pixelfly split runs the block-specialized BSR kernel over its block
// rows; the windowed butterfly sweeps keep their own kernel (a shard's
// window in a global stage holds only the top or only the bottom halves
// of its pairs, and the unrolled pair kernels write both). Each kernel
// that stages intermediates declares its scratch beside it. canSplit must
// have accepted the layer first.
func splitStep(l nn.Layer, act tensor.Activation, inW, outW, shards int) []step {
	pts := splitPoints(outW, shards)
	switch t := l.(type) {
	case *nn.Dense:
		return []step{denseSplit(t.Name(), t.W, t.Bias, outW, pts, act)}
	case *nn.FactorizedDense:
		return []step{factorizedSplit(t, pts, act)}
	case *nn.ReLU:
		return []step{reluSplit(outW, pts)}
	case *nn.StructuredLinear:
		switch tr := t.T.(type) {
		case *butterfly.Butterfly:
			return butterflySplit(t.Name(), tr, t.Bias, pts, act)
		case *baselines.LowRank:
			return []step{lowRankSplit(t.Name(), tr, t.Bias, pts, act)}
		case *pixelfly.Pixelfly:
			return []step{pixelflySplit(t.Name(), tr, t.Bias, pts, act)}
		}
	}
	panic(fmt.Sprintf("shard: splitStep on unsplittable layer %T", l))
}

// sliceCols copies columns [lo,hi) of w into a fresh (rows × hi-lo) matrix
// — the weight slice one shard owns.
func sliceCols(w *tensor.Matrix, lo, hi int) *tensor.Matrix {
	out := tensor.New(w.Rows, hi-lo)
	tensor.CopyCols(out, 0, w, lo, hi-lo)
	return out
}

// sliceRowsT copies rows [lo,hi) of u into a fresh transposed
// (u.Cols × hi-lo) matrix: out[p][j] = u[lo+j][p]. This derives one
// shard's slice of Uᵀ from an exported n×r factor.
func sliceRowsT(u *tensor.Matrix, lo, hi int) *tensor.Matrix {
	out := tensor.New(u.Cols, hi-lo)
	for j := lo; j < hi; j++ {
		for p := 0; p < u.Cols; p++ {
			out.Set(p, j-lo, u.At(j, p))
		}
	}
	return out
}

// fusedTag names micro-steps lowered from a fused plan step, keeping the
// sharded step listing coherent with the plan's own ("dense(256x256)/tp"
// vs "dense(256x256)+relu/tp").
func fusedTag(act tensor.Activation) string {
	if act == tensor.ActNone {
		return ""
	}
	return "+" + act.String()
}

// denseSplit: shard k computes act(x·W[:, lo:hi) + bias[lo:hi)) into its
// column window from its own slice of the weight — the Megatron-style
// split of a linear layer, each IPU holding 1/S of the N² matrix — in one
// fused pass (act is ActNone for unfused steps; the kernel's arithmetic
// chain per element is identical either way).
func denseSplit(name string, w *tensor.Matrix, bias []float32, outW int, pts []int, act tensor.Activation) step {
	shards := len(pts) - 1
	st := step{name: name + fusedTag(act) + "/tp", cols: outW, variant: microkernel.Variant(), run: make([]func(dst, x *tensor.Matrix, ws *tensor.Workspace), shards)}
	for k := 0; k < shards; k++ {
		lo, hi := pts[k], pts[k+1]
		if lo == hi {
			continue
		}
		pwk := tensor.Pack(sliceCols(w, lo, hi))
		bk := append([]float32(nil), bias[lo:hi]...)
		st.run[k] = func(dst, x *tensor.Matrix, ws *tensor.Workspace) {
			tensor.MatMulPackedColsBiasActInto(dst, lo, x, pwk, bk, act)
		}
	}
	return st
}

// factorizedSplit: the rank-r bottleneck x·A is replicated on every shard
// (it is tiny — r ≪ out), the wide B factor is column-sliced with the
// epilogue fused into the window write.
func factorizedSplit(t *nn.FactorizedDense, pts []int, act tensor.Activation) step {
	shards := len(pts) - 1
	st := step{name: t.Name() + fusedTag(act) + "/tp", cols: t.Out, variant: microkernel.Variant(),
		run: make([]func(dst, x *tensor.Matrix, ws *tensor.Workspace), shards), scratch: make([]func(rows int) tensor.Scratch, shards)}
	pa := tensor.Pack(t.A)
	for k := 0; k < shards; k++ {
		lo, hi := pts[k], pts[k+1]
		if lo == hi {
			continue
		}
		pbk := tensor.Pack(sliceCols(t.B, lo, hi))
		biask := append([]float32(nil), t.Bias[lo:hi]...)
		st.scratch[k] = rankScratch(t.Rank)
		st.run[k] = func(dst, x *tensor.Matrix, ws *tensor.Workspace) {
			xa := ws.Take(x.Rows, t.Rank)
			tensor.MatMulPackedColsBiasActInto(xa, 0, x, pa, nil, tensor.ActNone)
			tensor.MatMulPackedColsBiasActInto(dst, lo, xa, pbk, biask, act)
		}
	}
	return st
}

// rankScratch declares the scratch of the low-rank window kernels: the
// replicated rank bottleneck (x·A or x·V), rows×rank.
func rankScratch(rank int) func(rows int) tensor.Scratch {
	return func(rows int) tensor.Scratch { return tensor.Scratch{Floats: rows * rank, Headers: 1} }
}

// reluSplit: elementwise, each shard clamps its own slice.
func reluSplit(width int, pts []int) step {
	shards := len(pts) - 1
	st := step{name: "relu/tp", cols: width, run: make([]func(dst, x *tensor.Matrix, ws *tensor.Workspace), shards)}
	for k := 0; k < shards; k++ {
		lo, hi := pts[k], pts[k+1]
		if lo == hi {
			continue
		}
		st.run[k] = func(dst, x *tensor.Matrix, ws *tensor.Workspace) {
			for r := 0; r < x.Rows; r++ {
				src := x.Row(r)[lo:hi]
				out := dst.Row(r)[lo:hi]
				for i, v := range src {
					out[i] = microkernel.ReLU(v)
				}
			}
		}
	}
	return st
}

// lowRankSplit: xv = x·V is replicated (rank columns only); the n-wide
// back-projection through Uᵀ is column-sliced per shard with the epilogue
// fused into the window write.
func lowRankSplit(name string, t *baselines.LowRank, bias []float32, pts []int, act tensor.Activation) step {
	shards := len(pts) - 1
	st := step{name: name + fusedTag(act) + "/tp", cols: t.N, variant: microkernel.Variant(),
		run: make([]func(dst, x *tensor.Matrix, ws *tensor.Workspace), shards), scratch: make([]func(rows int) tensor.Scratch, shards)}
	pv := tensor.Pack(t.V)
	for k := 0; k < shards; k++ {
		lo, hi := pts[k], pts[k+1]
		if lo == hi {
			continue
		}
		putk := tensor.Pack(sliceRowsT(t.U, lo, hi))
		bk := append([]float32(nil), bias[lo:hi]...)
		st.scratch[k] = rankScratch(t.Rank)
		st.run[k] = func(dst, x *tensor.Matrix, ws *tensor.Workspace) {
			xv := ws.Take(x.Rows, t.Rank)
			tensor.MatMulPackedColsBiasActInto(xv, 0, x, pv, nil, tensor.ActNone)
			tensor.MatMulPackedColsBiasActInto(dst, lo, xv, putk, bk, act)
		}
	}
	return st
}

// pixelflySplit: shard k owns the block rows covering its output slice of
// the BSR weight (1/S of the blocks, up to support skew) plus its slice of
// the low-rank U factor; V is replicated. The block-sparse product writes
// the shard's columns of dst directly. The fused bias and activation ride
// whichever kernel writes the window last: the low-rank residual
// accumulation when the layer has one, the block-sparse product
// otherwise.
func pixelflySplit(name string, t *pixelfly.Pixelfly, bias []float32, pts []int, act tensor.Activation) step {
	shards := len(pts) - 1
	n, bs := t.Cfg.N, t.Cfg.BlockSize
	st := step{name: name + fusedTag(act) + "/tp", cols: n, variant: t.MicroVariant(),
		run: make([]func(dst, x *tensor.Matrix, ws *tensor.Workspace), shards), scratch: make([]func(rows int) tensor.Scratch, shards)}
	for k := 0; k < shards; k++ {
		lo, hi := pts[k], pts[k+1]
		if lo == hi {
			continue
		}
		br0, br1 := lo/bs, hi/bs
		bk := append([]float32(nil), bias[lo:hi]...)
		if t.Cfg.LowRank == 0 {
			st.run[k] = func(dst, x *tensor.Matrix, ws *tensor.Workspace) {
				t.W.MulInto(dst, lo, x, br0, br1, bk, act)
			}
			continue
		}
		utk := sliceRowsT(t.U, lo, hi)
		// With a low-rank term the kernel stages x·V (rows×r) and its
		// window of the back-projection.
		st.scratch[k] = func(rows int) tensor.Scratch {
			return tensor.Scratch{Floats: rows*t.Cfg.LowRank + rows*(hi-lo), Headers: 2}
		}
		st.run[k] = func(dst, x *tensor.Matrix, ws *tensor.Workspace) {
			t.W.MulInto(dst, lo, x, br0, br1, nil, tensor.ActNone)
			xv := ws.Take(x.Rows, t.Cfg.LowRank)
			tensor.MatMulInto(xv, x, t.V)
			lrk := ws.Take(x.Rows, hi-lo)
			tensor.MatMulInto(lrk, xv, utk)
			tensor.AddInPlaceColsBiasAct(dst, lo, lrk, bk, act)
		}
	}
	return st
}

// butterflySplit lowers one butterfly layer into 1+log2(N) micro-steps:
// the input permutation, then one step per factor stage. Stages whose
// pairing stride stays inside a slice (the first log2(N/S)) read only the
// shard's own columns; the top log2(S) "global" stages read the partner
// slice another shard wrote the step before — which on a real pod is one
// pairwise IPU-Link exchange per stage, and on the host is just the shared
// arena plus the inter-step barrier. The layer bias — and, for fused plan
// steps, the folded activation — ride the final stage's kernel: both are
// column-local, so fusion survives the split.
func butterflySplit(name string, b *butterfly.Butterfly, bias []float32, pts []int, act tensor.Activation) []step {
	shards := len(pts) - 1
	mk := func(tag string) step {
		return step{name: name + tag, cols: b.N, variant: "reference", run: make([]func(dst, x *tensor.Matrix, ws *tensor.Workspace), shards)}
	}
	perm := mk("/tp:perm")
	for k := 0; k < shards; k++ {
		lo, hi := pts[k], pts[k+1]
		if lo == hi {
			continue
		}
		perm.run[k] = func(dst, x *tensor.Matrix, ws *tensor.Workspace) {
			for r := 0; r < x.Rows; r++ {
				src := x.Row(r)
				out := dst.Row(r)
				if b.Perm == nil {
					copy(out[lo:hi], src[lo:hi])
					continue
				}
				for i := lo; i < hi; i++ {
					out[i] = src[b.Perm[i]]
				}
			}
		}
	}
	steps := []step{perm}
	sliceW := b.N / shards
	for si, f := range b.Factors {
		f := f
		last := si == len(b.Factors)-1
		tag := fmt.Sprintf("/tp:stage%d", f.Stage)
		if 1<<f.Stage > sliceW && shards > 1 {
			tag += "+exchange"
		}
		if last {
			tag += fusedTag(act)
		}
		st := mk(tag)
		for k := 0; k < shards; k++ {
			lo, hi := pts[k], pts[k+1]
			if lo == hi {
				continue
			}
			if !last {
				st.run[k] = func(dst, x *tensor.Matrix, ws *tensor.Workspace) {
					applyFactorWindow(f, x, dst, lo, hi, nil, tensor.ActNone)
				}
				continue
			}
			bk := append([]float32(nil), bias[lo:hi]...)
			st.run[k] = func(dst, x *tensor.Matrix, ws *tensor.Workspace) {
				applyFactorWindow(f, x, dst, lo, hi, bk, act)
			}
		}
		steps = append(steps, st)
	}
	return steps
}

// applyFactorWindow writes output indices [lo,hi) of one butterfly factor
// application, reading whichever source indices the pairs need (possibly
// outside the window). Each element is produced by exactly the expression
// butterfly.applyFactorRows uses, so a windowed sweep assembled across
// shards is bit-for-bit the full sweep. On the layer's final stage the
// fused epilogue — bias (window-relative, nil for none) then activation —
// is applied as each element is produced, matching the fused unsharded
// kernels element-for-element.
func applyFactorWindow(f *butterfly.Factor, in, out *tensor.Matrix, lo, hi int, bias []float32, act tensor.Activation) {
	h := 1 << (f.Stage - 1)
	for r := 0; r < in.Rows; r++ {
		src := in.Row(r)
		dst := out.Row(r)
		for i := lo; i < hi; i++ {
			var v float32
			if i&h == 0 {
				p := (i>>uint(f.Stage))*h + i&(h-1)
				v = f.A[p]*src[i] + f.B[p]*src[i+h]
			} else {
				top := i - h
				p := (top>>uint(f.Stage))*h + top&(h-1)
				v = f.C[p]*src[top] + f.D[p]*src[i]
			}
			if bias != nil {
				v += bias[i-lo]
			}
			dst[i] = act.Apply(v)
		}
	}
}
