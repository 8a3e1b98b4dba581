package serve

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/butterfly"
	"repro/internal/factorize"
	"repro/internal/ipu"
	"repro/internal/nn"
)

// RegisterCompressed compresses the model currently registered under
// srcName with nn.Compress and installs the result under newName — the
// compress-then-serve flow: register a trained dense model, then serve a
// butterfly/low-rank variant of it at a chosen error tolerance (e.g.
// "shl-dense" → "shl-bf-eps0.05"). The compressed model shares its
// uncompressed layers with the source, which is safe because serving only
// uses the read-only inference path. The model's programs price the
// compressed model by its actual post-compression layout, so responses
// report the (lower) modelled IPU memory of the structured operator.
// The per-layer compression decisions are returned alongside the model.
func (r *Registry) RegisterCompressed(newName, srcName string, opts nn.CompressOptions) (*Model, []nn.LayerReport, error) {
	if newName == "" {
		return nil, nil, fmt.Errorf("serve: compressed model name must be non-empty")
	}
	src, ok := r.Get(srcName)
	if !ok {
		return nil, nil, fmt.Errorf("serve: unknown source model %q", srcName)
	}
	net, reports, err := src.net.Compress(opts)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: compressing %q: %w", srcName, err)
	}
	spec := src.spec
	spec.Name = newName
	label, wb := compressedWorkload(spec.N, net)
	if wb == nil {
		// First layer is a structured layer Compress passed through
		// untouched (pixelfly, fastfood, ...): keep the source model's
		// label and spec-derived workload pricing.
		label = src.methodLabel
	}
	m, err := r.install(spec, net, label, wb, maxFactorizationError(reports))
	if err != nil {
		return nil, nil, err
	}
	return m, reports, nil
}

// maxFactorizationError reduces the per-layer compression reports to the
// worst relative error among the layers that were actually factorized —
// the accuracy price of serving this model, exported as the model's
// factorization-error gauge and in /stats. Layers kept dense are exact
// and don't count.
func maxFactorizationError(reports []nn.LayerReport) float64 {
	var maxErr float64
	for _, rep := range reports {
		if rep.Kind != factorize.KindDense && rep.RelError > maxErr {
			maxErr = rep.RelError
		}
	}
	return maxErr
}

// compressedWorkload inspects the compressed network's N×N first layer —
// the part the cost model prices — and returns the method label plus the
// matching IPU workload builder. A nil builder means the layer is not a
// dense-derived layout and the caller should keep spec-based pricing.
func compressedWorkload(n int, net *nn.Sequential) (string, workloadBuilder) {
	if len(net.Layers) == 0 {
		return "", nil
	}
	switch l := net.Layers[0].(type) {
	case *nn.Dense:
		return "compressed/dense", func(cfg ipu.Config, batch int) (*ipu.Workload, error) {
			return ipu.BuildLinear(cfg, n, batch), nil
		}
	case *nn.StructuredLinear:
		switch t := l.T.(type) {
		case *butterfly.Butterfly:
			return "compressed/butterfly", func(cfg ipu.Config, batch int) (*ipu.Workload, error) {
				return ipu.BuildButterflyMM(cfg, n, batch), nil
			}
		case *baselines.LowRank:
			rank := t.Rank
			return fmt.Sprintf("compressed/lowrank-r%d", rank),
				func(cfg ipu.Config, batch int) (*ipu.Workload, error) {
					return ipu.BuildLowRank(cfg, n, rank, batch), nil
				}
		}
	case *nn.FactorizedDense:
		rank := l.Rank
		return fmt.Sprintf("compressed/lowrank-r%d", rank),
			func(cfg ipu.Config, batch int) (*ipu.Workload, error) {
				return ipu.BuildLowRank(cfg, n, rank, batch), nil
			}
	}
	return "", nil
}
