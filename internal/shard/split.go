package shard

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// lowerTensorParallel lowers every step of a packed lowering into
// per-shard windows of the step's own window kernel
// (nn.Lowering.StepWindow), which runs over the lowering's weights and
// packs, so the split copies none of them. It fails (sending the planner
// to pipeline) when the lowering is not Splittable. Fused steps survive
// the split because their folded bias and activation are column-local:
// each shard's last pass applies the epilogue inside its own column
// window, and only the butterfly's exchange stages stay barriers.
func lowerTensorParallel(low *nn.Lowering, shards int) ([]step, error) {
	if shards == 1 {
		// A 1-shard split is the identity placement; reuse the pipeline
		// lowering, which runs every step unchanged on IPU 0.
		return lowerPipeline(low, 1), nil
	}
	if err := Splittable(low, shards); err != nil {
		return nil, err
	}
	var steps []step
	for i := 0; i < low.NumSteps(); i++ {
		steps = append(steps, splitStep(low, i, shards)...)
	}
	return steps, nil
}

// splitStep lowers step i to its tensor-parallel micro-steps, one per
// pass of the step's window kernel: each gives shard k its window
// [pts[k], pts[k+1]) of the step's columns, with the scratch the window
// declares for it. The split points are rounded to the window's
// alignment, so a shard whose window rounds to nothing idles. These are
// the windows priceSteps prices.
func splitStep(low *nn.Lowering, i, shards int) []step {
	info := low.Step(i)
	win := low.StepWindow(i)
	pts := splitPoints(info.Cols, shards, win.Align)
	steps := make([]step, len(win.Passes))
	for p, pass := range win.Passes {
		st := step{name: info.Name + "/tp" + pass.Tag, cols: info.Cols, src: i, variant: pass.Variant,
			run: make([]func(dst, x *tensor.Matrix, ws *tensor.Workspace), shards), scratch: make([]func(rows int) tensor.Scratch, shards)}
		if exchanges(pass, info.Cols, shards) {
			st.name += "+exchange"
		}
		for k := 0; k < shards; k++ {
			lo, hi := pts[k], pts[k+1]
			if lo == hi {
				continue
			}
			st.run[k] = func(dst, x *tensor.Matrix, ws *tensor.Workspace) { pass.Run(dst, x, ws, lo, hi) }
			if win.Scratch != nil {
				st.scratch[k] = func(rows int) tensor.Scratch { return win.Scratch(rows, hi-lo) }
			}
		}
		steps[p] = st
	}
	return steps
}

// exchanges reports whether a window pass of a cols-wide step reads past
// a shard's window: on a pod, one pairwise IPU-Link exchange round.
func exchanges(pass nn.WindowPass, cols, shards int) bool { return pass.Span > cols/shards }

// splitPoints returns the S+1 column boundaries slicing width columns into
// S near-equal contiguous shares, each inner boundary rounded to the
// nearest multiple of align (at most width): shard k owns [pts[k],
// pts[k+1]), which may be empty.
func splitPoints(width, shards, align int) []int {
	pts := make([]int, shards+1)
	for k := 1; k < shards; k++ {
		pts[k] = min((k*width/shards+align/2)/align*align, width)
	}
	pts[shards] = width
	return pts
}
