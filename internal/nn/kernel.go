package nn

import (
	"repro/internal/baselines"
	"repro/internal/butterfly"
	"repro/internal/obs"
	"repro/internal/pixelfly"
)

// kernelOfLayer classifies the layer by the Into-kernel family its lowered
// step actually executes — the attribution key of the per-kernel
// performance accounting. Dense runs the dense matmul kernels;
// FactorizedDense runs the two low-rank projection matmuls; a
// StructuredLinear is classified by its transform (butterfly factor
// sweeps, FWHT, FFT circular convolution, block-sparse-row, or the
// low-rank baseline). Everything else — standalone activations — lands
// in KernelOther.
func kernelOfLayer(l Layer) obs.Kernel {
	switch t := l.(type) {
	case *Dense:
		return obs.KernelMatMul
	case *FactorizedDense:
		return obs.KernelLowRank
	case *StructuredLinear:
		switch t.T.(type) {
		case *butterfly.Butterfly:
			return obs.KernelButterfly
		case *baselines.Fastfood:
			return obs.KernelFWHT
		case *baselines.Circulant:
			return obs.KernelFFT
		case *pixelfly.Pixelfly:
			return obs.KernelBSR
		case *baselines.LowRank:
			return obs.KernelLowRank
		default:
			return obs.KernelOther
		}
	default:
		return obs.KernelOther
	}
}
