package nn

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// TrainConfig drives Train. Defaults follow Table 3.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float32
	Momentum  float32
	Seed      int64
}

// PaperTrainConfig returns Table 3 settings with the given epoch budget.
func PaperTrainConfig(epochs int) TrainConfig {
	h := PaperHyperparams()
	return TrainConfig{Epochs: epochs, BatchSize: h.BatchSize,
		LR: h.LearningRate, Momentum: h.Momentum, Seed: 1}
}

// TrainResult summarizes a training run.
type TrainResult struct {
	TrainLoss    []float64 // per epoch
	ValAccuracy  []float64 // per epoch
	TestAccuracy float64
	Steps        int // total optimizer steps
	Samples      int // total samples processed
}

// Train runs minibatch SGD on the split, validating after every epoch,
// and reports accuracies.
func Train(model *Sequential, ds *dataset.Split, cfg TrainConfig) TrainResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := NewSGD(model, cfg.LR, cfg.Momentum)
	res := TrainResult{}
	var x *tensor.Matrix
	var y []int
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochLoss float64
		batches := dataset.Batches(ds.XTrain.Rows, cfg.BatchSize, rng)
		for _, idx := range batches {
			if x == nil || x.Rows != len(idx) {
				// Kept across steps: only an epoch's last, partial
				// batch changes its size.
				x, y = tensor.New(len(idx), ds.XTrain.Cols), make([]int, len(idx))
			}
			dataset.GatherInto(x, y, ds.XTrain, ds.YTrain, idx)
			model.ZeroGrad()
			logits := model.Forward(x)
			loss, dLogits := SoftmaxCrossEntropy(logits, y)
			model.Backward(dLogits)
			opt.Step()
			epochLoss += loss * float64(len(idx))
			res.Steps++
			res.Samples += len(idx)
		}
		res.TrainLoss = append(res.TrainLoss, epochLoss/float64(ds.XTrain.Rows))
		res.ValAccuracy = append(res.ValAccuracy, Evaluate(model, ds.XVal, ds.YVal))
	}
	res.TestAccuracy = Evaluate(model, ds.XTest, ds.YTest)
	return res
}

// Evaluate computes accuracy over a sample matrix in chunks (keeps
// activation memory bounded for large eval sets).
func Evaluate(model *Sequential, x *tensor.Matrix, y []int) float64 {
	if x.Rows == 0 {
		return 0
	}
	const chunk = 200
	correct := 0.0
	for lo := 0; lo < x.Rows; lo += chunk {
		hi := lo + chunk
		if hi > x.Rows {
			hi = x.Rows
		}
		sub := tensor.FromSlice(hi-lo, x.Cols, x.Data[lo*x.Cols:hi*x.Cols])
		logits := model.Forward(sub)
		correct += Accuracy(logits, y[lo:hi]) * float64(hi-lo)
	}
	return correct / float64(x.Rows)
}
