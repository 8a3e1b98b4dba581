package nn

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// pinnedEpoch is what one epoch of Train produces for the N=1024 SHLs on
// pinnedSplit from fixed seeds (weights 42, shuffle 1): the epoch's mean
// training loss and the test accuracy, recorded from the serial reference
// kernels. The training kernels split work across cores but must sum
// every element in the serial order: a reordered sum that moves the
// trained weights shows here (the kernel tests against the serial oracles
// catch every reorder). Go fuses multiply-adds on some architectures, so
// the values are pinned for amd64 only; elsewhere the runs must still
// agree with each other.
var pinnedEpoch = map[Method]struct{ loss, acc float64 }{
	Butterfly: {2.3291941059532, 0.115},
	Pixelfly:  {2.3141676523128276, 0.08},
}

// pinnedSplit is a small draw of the synthetic CIFAR-10 task: 600
// training samples (510 after the validation cut, so the epoch ends on a
// partial batch of 10) and 200 test samples.
func pinnedSplit() *dataset.Split {
	cfg := dataset.CIFAR10Config()
	cfg.Train, cfg.Test = 600, 200
	return dataset.Generate(cfg)
}

// TestOneEpochPinned trains the butterfly and paper-pixelfly SHLs for one
// epoch at GOMAXPROCS 4 and 1 and compares loss and test accuracy by ==.
func TestOneEpochPinned(t *testing.T) {
	ds := pinnedSplit()
	for _, m := range []Method{Butterfly, Pixelfly} {
		want, pinned := pinnedEpoch[m]
		pinned = pinned && runtime.GOARCH == "amd64"
		for i, procs := range []int{4, 1} {
			prev := runtime.GOMAXPROCS(procs)
			res := Train(BuildSHL(m, 1024, 10, rand.New(rand.NewSource(42))), ds, PaperTrainConfig(1))
			runtime.GOMAXPROCS(prev)
			got := struct{ loss, acc float64 }{res.TrainLoss[0], res.TestAccuracy}
			if !pinned && i == 0 {
				want = got
			}
			if got != want {
				t.Errorf("%v at GOMAXPROCS %d: loss %v acc %v, want loss %v acc %v",
					m, procs, got.loss, got.acc, want.loss, want.acc)
			}
		}
	}
}
