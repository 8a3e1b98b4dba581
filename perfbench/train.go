package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
)

// trainMethods are the SHLs train_shl trains, one epoch each per job.
var trainMethods = []modelDef{{"butterfly", nn.Butterfly}, {"pixelfly", nn.Pixelfly}}

// trainGolden is what one epoch of nn.Train produces from the fixed seeds
// (dataset seed 42, weight seed 42, shuffle seed 1): the epoch's mean
// training loss and the test accuracy. Go fuses multiply-adds on some
// architectures, so the values are pinned for amd64 only; elsewhere every
// job must still agree with the run's first job.
var trainGolden = map[string]struct{ loss, acc float64 }{
	"butterfly": {2.3062853887121433, 0.135},
	"pixelfly":  {2.300811974596187, 0.108},
}

// trainConfig is Table 3's settings (batch 50, SGD, lr 0.001, momentum
// 0.9) for one epoch.
func trainConfig() nn.TrainConfig { return nn.PaperTrainConfig(1) }

func buildTrainNet(md modelDef) *nn.Sequential {
	return nn.BuildSHL(md.method, width, classes, rand.New(rand.NewSource(weightSeed)))
}

// setupTrain generates the dataset and builds both models, returning the
// dataset and the set-up time.
func setupTrain(sp *spans) (*dataset.Split, time.Duration) {
	root := sp.begin("setup", -1)
	t0 := time.Now()
	id := sp.begin("dataset.Generate", root)
	ds := dataset.Generate(dataset.CIFAR10Config())
	sp.end(id)
	for _, md := range trainMethods {
		id := sp.begin("nn.BuildSHL", root)
		buildTrainNet(md)
		sp.end(id)
	}
	d := time.Since(t0)
	sp.end(root)
	return ds, d
}

// trainOutcome is one method's result within a job.
type trainOutcome struct {
	loss, acc float64
}

// checker counts trained results that differ from the golden values or
// from the run's first result for the same method.
type checker struct {
	first  map[string]trainOutcome
	failed int
}

func (c *checker) check(method string, got trainOutcome) {
	if c.first == nil {
		c.first = map[string]trainOutcome{}
	}
	want, seen := c.first[method]
	if !seen {
		want = got
		if g, ok := trainGolden[method]; ok && runtime.GOARCH == "amd64" {
			want = trainOutcome{g.loss, g.acc}
		}
		c.first[method] = want
	}
	if got != want {
		fmt.Printf("MISMATCH %s: loss %v acc %v, want loss %v acc %v\n", method, got.loss, got.acc, want.loss, want.acc)
		c.failed++
	}
}

// trainJob runs nn.Train on freshly built copies of both SHLs and returns
// the job's wall time (nn.Train calls only) and samples trained.
func trainJob(ds *dataset.Split, c *checker) (time.Duration, int) {
	nets := make([]*nn.Sequential, len(trainMethods))
	for i, md := range trainMethods {
		nets[i] = buildTrainNet(md)
	}
	var wall time.Duration
	samples := 0
	for i, md := range trainMethods {
		t0 := time.Now()
		res := nn.Train(nets[i], ds, trainConfig())
		wall += time.Since(t0)
		samples += res.Samples
		c.check(md.name, trainOutcome{res.TrainLoss[len(res.TrainLoss)-1], res.TestAccuracy})
	}
	return wall, samples
}

// minJobs is the fewest training jobs a run measures.
const minJobs = 3

func runTrainE2E(seconds float64) (report, error) {
	var setups []float64
	for i := 0; i < setupRepeats-1; i++ {
		_, d := setupTrain(nil)
		setups = append(setups, d.Seconds())
	}
	dropPools()
	ds, d := setupTrain(nil)
	setups = append(setups, d.Seconds())
	heap := liveHeapMiB()

	calib0 := calibGflops()
	var c checker
	var walls, rates []float64
	attempted := 0
	start := time.Now()
	for len(walls) < minJobs || time.Since(start).Seconds() < seconds {
		wall, samples := trainJob(ds, &c)
		attempted += len(trainMethods)
		walls = append(walls, ms(wall))
		rates = append(rates, float64(samples)/wall.Seconds())
		fmt.Printf("job %d: %.1f ms, %.1f samples/s\n", len(walls), ms(wall), rates[len(rates)-1])
	}
	calib1 := calibGflops()
	fmt.Printf("setups %v s; calib %.3f → %.3f GFLOP/s\n", setups, calib0, calib1)
	return report{
		attempted: attempted,
		failed:    c.failed,
		metrics: endToEndMetrics(map[string]float64{
			"setup_s":       median(setups),
			"p50_ms":        median(walls),
			"heap_live_mb":  heap,
			"samples_per_s": median(rates),
		}),
	}, nil
}

// runTrainTraced times one untraced nn.Train job, then runs nn.Train's loop
// by hand with a span around every call into nn and dataset, and checks
// the hand-run loop reproduces nn.Train's loss and accuracy.
func runTrainTraced(outDir, file string) (report, error) {
	m := newLayerMetrics()
	ds, _ := setupTrain(nil)
	calib0 := calibGflops()
	var c checker
	p0 := sampleProc()
	wall, samples := trainJob(ds, &c)
	pd := diffProc(p0, sampleProc(), samples)
	m.set("runtime.cpu_ms_per_req", pd.cpuMsPer)
	m.set("runtime.alloc_kb_per_req", pd.allocKBPer)
	m.set("runtime.gc_per_s", pd.gcPerS)

	sp := newSpans()
	ds, _ = setupTrain(sp)
	m.set("dataset.generate_s", sp.total("dataset.Generate"))
	var handWall time.Duration
	for _, md := range trainMethods {
		net := buildTrainNet(md)
		t0 := time.Now()
		got, steps, allocBytes := handTrain(net, ds, md.name, sp)
		handWall += time.Since(t0)
		c.check(md.name, got)
		p := "nn.train." + md.name + "."
		m.set(p+"forward_ms_p50", median(sp.durs(md.name+".forward")))
		m.set(p+"backward_ms_p50", median(sp.durs(md.name+".backward")))
		m.set(p+"sgd_ms_p50", median(sp.durs(md.name+".sgd")))
		m.set(p+"alloc_mb_per_step", float64(allocBytes)/(1<<20)/float64(steps))
	}
	m.set("dataset.gather_ms_p50", median(sp.durs("dataset.Gather")))
	m.set("obs.tracing_overhead_pct", 100*(handWall.Seconds()-wall.Seconds())/wall.Seconds())
	m.set("loadgen.calib_gflops_start", calib0)
	m.set("loadgen.calib_gflops_end", calibGflops())
	if err := sp.write(outDir, file); err != nil {
		return report{}, err
	}
	return report{attempted: 2 * len(trainMethods), failed: c.failed, metrics: m.list()}, nil
}

// handTrain is nn.Train's loop written out call by call, with a span
// around each: dataset.Gather, every Layer.Forward, the loss, every
// Layer.Backward and SGD.Step, then the same validation and test
// evaluation. It returns the epoch's loss and test accuracy, the steps
// run and the bytes allocated by the training steps.
func handTrain(model *nn.Sequential, ds *dataset.Split, name string, sp *spans) (trainOutcome, int, uint64) {
	cfg := trainConfig()
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewSGD(model, cfg.LR, cfg.Momentum)
	var loss float64
	steps := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochLoss float64
		for _, idx := range dataset.Batches(ds.XTrain.Rows, cfg.BatchSize, rng) {
			step := sp.begin(name+".step", -1)
			id := sp.begin("dataset.Gather", step)
			x, y := dataset.Gather(ds.XTrain, ds.YTrain, idx)
			sp.end(id)
			model.ZeroGrad()
			fwd := sp.begin(name+".forward", step)
			for _, l := range model.Layers {
				id := sp.begin(name+".forward."+l.Name(), fwd)
				x = l.Forward(x)
				sp.end(id)
			}
			sp.end(fwd)
			id = sp.begin("nn.SoftmaxCrossEntropy", step)
			l, d := nn.SoftmaxCrossEntropy(x, y)
			sp.end(id)
			bwd := sp.begin(name+".backward", step)
			for i := len(model.Layers) - 1; i >= 0; i-- {
				id := sp.begin(name+".backward."+model.Layers[i].Name(), bwd)
				d = model.Layers[i].Backward(d)
				sp.end(id)
			}
			sp.end(bwd)
			id = sp.begin(name+".sgd", step)
			opt.Step()
			sp.end(id)
			sp.end(step)
			epochLoss += l * float64(len(idx))
			steps++
		}
		runtime.ReadMemStats(&m1)
		loss = epochLoss / float64(ds.XTrain.Rows)
		id := sp.begin("nn.Evaluate", -1)
		nn.Evaluate(model, ds.XVal, ds.YVal)
		sp.end(id)
	}
	id := sp.begin("nn.Evaluate", -1)
	acc := nn.Evaluate(model, ds.XTest, ds.YTest)
	sp.end(id)
	return trainOutcome{loss, acc}, steps, m1.TotalAlloc - m0.TotalAlloc
}
