// Package factorize converts trained dense weight matrices into structured
// compressed operators at a user-chosen error/memory trade-off — the
// post-hoc counterpart of the paper's trained-from-scratch butterfly
// layers, covering the compress-then-serve workload the repository's
// serving stack needs.
//
// Two operator families are produced:
//
//   - Truncated-SVD low-rank factorizations W ≈ P·Q, computed with the
//     in-repo linear-algebra layer of internal/tensor (Householder QR, a
//     randomized range finder with one power iteration, and a one-sided
//     Jacobi SVD — Halko, Martinsson & Tropp, SIAM Rev. 2011). The sketch
//     makes every candidate rank's error known from one pass, so the
//     tolerance search never re-reads W.
//
//   - Butterfly factorizations emitting the existing butterfly.Factor
//     chain, computed by hierarchical rank-1 block identification: peeling
//     one factor reduces to closed-form rank-1 fits of 2×(N/2) sub-blocks
//     and two half-size recursive problems (Zheng, Riccietti & Gribonval,
//     arXiv:2110.01230; error analysis in Le et al., arXiv:2411.04506; the
//     randomized matrix-vector view is Liu et al., arXiv:2002.03400).
//     Exact butterflies — e.g. the Walsh–Hadamard transform — are
//     recovered to roundoff.
//
// FactorizeToTolerance searches the smallest parameter budget meeting a
// relative Frobenius-error target across both families, falling back to
// keeping the dense matrix when no structured operator is smaller. The
// result plugs into nn.Sequential.Compress, the serving registry's
// compressed model variants, and cmd/ipucompress.
package factorize

import (
	"fmt"
	"math/rand"

	"repro/internal/butterfly"
	"repro/internal/fft"
	"repro/internal/tensor"
)

// Kind identifies the operator family of an approximation.
type Kind int

const (
	// KindDense keeps the original dense matrix (no compression won).
	KindDense Kind = iota
	// KindLowRank is a truncated-SVD factorization W ≈ P·Q.
	KindLowRank
	// KindButterfly is a butterfly factor chain.
	KindButterfly
)

func (k Kind) String() string {
	switch k {
	case KindDense:
		return "dense"
	case KindLowRank:
		return "lowrank"
	case KindButterfly:
		return "butterfly"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Options tune FactorizeToTolerance.
type Options struct {
	// Methods restricts the candidate families (nil = butterfly and
	// low-rank). KindDense is always available as the fallback.
	Methods []Kind
	// Seed drives the randomized sketching; a fixed seed makes the
	// factorization reproducible.
	Seed int64
}

func (o Options) allows(k Kind) bool {
	if len(o.Methods) == 0 {
		return true
	}
	for _, m := range o.Methods {
		if m == k {
			return true
		}
	}
	return false
}

// Approx is one compressed approximation of a dense matrix.
type Approx struct {
	Kind     Kind
	RelError float64 // measured ‖W − Ŵ‖_F / ‖W‖_F
	Params   int     // parameter count of the operator

	// Exactly one of the following is set for the structured kinds.
	LowRank   *LowRankFactors
	Butterfly *butterfly.Butterfly
}

// FactorizeToTolerance returns the smallest-parameter approximation of w
// whose relative Frobenius error is ≤ eps. Candidates are the butterfly
// factorization (square power-of-two matrices; fixed 2·N·log₂N budget),
// the minimal-rank truncated SVD meeting eps, and the dense fallback
// (zero error, full budget) — so the call always succeeds, and the result
// never has more parameters than the dense matrix itself.
func FactorizeToTolerance(w *tensor.Matrix, eps float64, opts Options) (*Approx, error) {
	if eps < 0 {
		return nil, fmt.Errorf("factorize: negative tolerance %v", eps)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	best := &Approx{Kind: KindDense, RelError: 0, Params: w.NumElements()}

	if opts.allows(KindButterfly) && w.Rows == w.Cols && w.Rows >= 2 && fft.IsPowerOfTwo(w.Rows) {
		bf, err := ButterflyFactorize(w)
		if err != nil {
			return nil, err
		}
		cand := &Approx{Kind: KindButterfly, Butterfly: bf,
			RelError: relError(w, bf.Dense()), Params: bf.ParamCount()}
		best = better(best, cand, eps)
	}
	if opts.allows(KindLowRank) {
		lr := LowRankToTolerance(w, eps, rng)
		cand := &Approx{Kind: KindLowRank, LowRank: lr,
			RelError: lr.RelError(w), Params: lr.Params()}
		best = better(best, cand, eps)
	}
	return best, nil
}

// better keeps the smaller-budget candidate among those meeting eps,
// breaking parameter ties toward lower error.
func better(cur, cand *Approx, eps float64) *Approx {
	if cand.RelError > eps {
		return cur
	}
	if cand.Params < cur.Params || (cand.Params == cur.Params && cand.RelError < cur.RelError) {
		return cand
	}
	return cur
}
