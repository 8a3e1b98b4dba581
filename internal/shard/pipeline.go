package shard

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// lowerPipeline assigns contiguous step ranges of a packed lowering to
// consecutive IPUs, balanced by the steps' resident bytes (the quantity
// that overflows tile SRAM). Every lowered step becomes one micro-step
// whose kernel runs only on the owning shard, through the lowering's own
// packed kernel (nn.Lowering.StepRunner) and with its declared scratch —
// which is what makes pipeline partitioning trivially bit-for-bit: each
// step executes unchanged, only its placement moves. Activations crossing
// a stage boundary ride one IPU-Link transfer in the cost model; on the
// host the wavefront hands them over through a per-boundary arena.
func lowerPipeline(low *nn.Lowering, shards int) []step {
	owners := pipelineOwners(stepBytes(low), shards)
	steps := make([]step, low.NumSteps())
	names := low.Steps()
	for i := range steps {
		st := step{
			name:    fmt.Sprintf("%s@ipu%d", names[i], owners[i]),
			cols:    low.StepCols(i),
			src:     i,
			variant: low.StepVariant(i),
			run:     make([]func(dst, x *tensor.Matrix, ws *tensor.Workspace), shards),
			scratch: make([]func(rows int) tensor.Scratch, shards),
		}
		st.run[owners[i]] = low.StepRunner(i)
		st.scratch[owners[i]] = func(rows int) tensor.Scratch { return low.StepScratch(i, rows) }
		steps[i] = st
	}
	return steps
}

// pipelineOwners maps each step, given its bytes, to its pipeline stage:
// a greedy in-order packing that closes a stage once it holds its fair
// share of the bytes, while leaving enough steps for the remaining
// stages. Stages are contiguous and monotone, as a pipeline requires.
func pipelineOwners(bytes []int, shards int) []int {
	n := len(bytes)
	total := 0
	for _, b := range bytes {
		total += b
	}
	owners := make([]int, n)
	stage, acc := 0, 0
	remaining := total
	for i := 0; i < n; i++ {
		owners[i] = stage
		acc += bytes[i]
		remaining -= bytes[i]
		stepsLeft := n - i - 1
		stagesLeft := shards - stage - 1
		if stagesLeft > 0 && stepsLeft > 0 {
			fair := (total + shards - 1) / shards
			// Advance when this stage has its share, or when the remaining
			// steps are only just enough to populate the remaining stages.
			if acc >= fair || stepsLeft <= stagesLeft {
				stage++
				acc = 0
			}
		}
	}
	return owners
}
