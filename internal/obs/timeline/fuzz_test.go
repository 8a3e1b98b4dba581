package timeline

import (
	"bytes"
	"math/rand"
	"testing"
)

// Frame shapes, one per executor: nn.Plan, the tensor-parallel barrier
// loop, and the pipeline wavefront at 1, 2 and 4 micro-batches.
const (
	shapePlan = iota
	shapeBarrier
	shapeWave1
	shapeWave2
	shapeWave4
	numShapes
)

// randomFrame simulates one batch of the given executor shape with
// random kernel durations and host gaps, writing the frame the way that
// executor does: plan cells back to back, barrier-loop cells inside
// their step's span, wavefront cells on the owning stage only, each
// stage waiting on its upstream neighbour's micro-batch.
func randomFrame(shape, steps, ipus int, rng *rand.Rand) *Frame {
	d := func() int64 { return rng.Int63n(2000) }
	gap := func() int64 { return rng.Int63n(300) }
	switch shape {
	case shapePlan:
		f := NewFrame(steps, 1, 1, nil, false)
		f.Begin(1+rng.Intn(64), 1)
		var off int64
		for i := 0; i < steps; i++ {
			*f.Cell(i, 0, 0) = Cell{Start: off, Dur: d()}
			off += f.Cell(i, 0, 0).Dur
		}
		f.Wall = off
		return f
	case shapeBarrier:
		f := NewFrame(steps, ipus, 1, nil, true)
		f.Begin(1+rng.Intn(64), 1)
		t := gap()
		for i := 0; i < steps; i++ {
			end := t
			for k := 0; k < ipus; k++ {
				c := Cell{Start: t + gap(), Dur: d()}
				*f.Cell(i, 0, k) = c
				end = max(end, c.Start+c.Dur)
			}
			end += gap()
			f.Spans[i] = Cell{Start: t, Dur: end - t}
			t = end + gap()
		}
		f.Wall = t
		return f
	}
	micro := map[int]int{shapeWave1: 1, shapeWave2: 2, shapeWave4: 4}[shape]
	stages := min(ipus, steps)
	// Contiguous stages, each owning at least one step.
	owner := make([]int, steps)
	cuts := rng.Perm(steps - 1)[:stages-1]
	for _, c := range cuts {
		for i := c + 1; i < steps; i++ {
			owner[i]++
		}
	}
	f := NewFrame(steps, stages, micro, owner, false)
	rows := micro + rng.Intn(64)
	f.Begin(rows, micro)
	free := make([]int64, stages)   // when each stage's goroutine is next free
	ready := make([]int64, micro+1) // when the upstream stage handed micro-batch j over
	var wall int64
	for k := 0; k < stages; k++ {
		for j := 0; j < micro; j++ {
			t := max(free[k], ready[j]) + gap()
			for i := range owner {
				if owner[i] != k {
					continue
				}
				*f.Cell(i, j, k) = Cell{Start: t, Dur: d()}
				t += f.Cell(i, j, k).Dur + rng.Int63n(20)
			}
			free[k], ready[j] = t, t
			wall = max(wall, t)
		}
	}
	f.Wall = wall + gap()
	return f
}

// FuzzFrameEvents drives the frame derivation over random frames of
// every executor shape and checks its contract: each IPU's events tile
// [0, Wall] in order with no overlap, compute events equal the frame's
// cells (per IPU, and per step outside the barrier loop), tensor-parallel
// and single-IPU frames have no bubble, and the Chrome export passes
// LintChrome.
func FuzzFrameEvents(f *testing.F) {
	for shape := 0; shape < numShapes; shape++ {
		f.Add(uint8(shape), uint8(3), uint8(2), int64(shape))
		f.Add(uint8(shape), uint8(7), uint8(4), int64(100+shape))
		f.Add(uint8(shape), uint8(1), uint8(1), int64(200+shape))
	}
	f.Fuzz(func(t *testing.T, shapeB, stepsB, ipusB uint8, seed int64) {
		shape := int(shapeB) % numShapes
		steps := 1 + int(stepsB)%12
		ipus := 1 + int(ipusB)%4
		rng := rand.New(rand.NewSource(seed))
		fr := randomFrame(shape, steps, ipus, rng)
		meta := &Meta{Model: "m", Strategy: "pipeline", Shards: fr.IPUs,
			Steps: make([]string, steps), ExchangeSecPerRow: make([]float64, steps),
			ComputeSecPerRow: make([]float64, steps)}
		for i := range meta.Steps {
			meta.Steps[i] = "s" + string(rune('a'+i))
			meta.ComputeSecPerRow[i] = 1e-9
			if rng.Intn(2) == 0 {
				meta.ExchangeSecPerRow[i] = 1e-9
			}
		}

		evs := appendEvents(nil, fr, meta)
		end := make([]int64, fr.IPUs)
		compute := make([]int64, fr.IPUs)
		stepCompute := make([]int64, steps)
		for _, ev := range evs {
			k := ev.IPU
			if ev.StartNanos != end[k] {
				t.Fatalf("shape %d ipu%d: event %+v starts at %d, previous ends at %d", shape, k, ev, ev.StartNanos, end[k])
			}
			if ev.DurNanos < 0 || ev.Step < 0 || int(ev.Step) >= steps {
				t.Fatalf("shape %d: malformed event %+v", shape, ev)
			}
			end[k] += ev.DurNanos
			switch ev.Phase {
			case Compute:
				compute[k] += ev.DurNanos
				stepCompute[ev.Step] += ev.DurNanos
			case Bubble:
				if shape == shapePlan || shape == shapeBarrier {
					t.Fatalf("shape %d: bubble in a frame with no pipeline: %+v", shape, ev)
				}
			}
		}
		for k := 0; k < fr.IPUs; k++ {
			if end[k] != fr.Wall {
				t.Fatalf("shape %d ipu%d: events end at %d, wall is %d", shape, k, end[k], fr.Wall)
			}
			if compute[k] != fr.ComputeNanos(k) {
				t.Fatalf("shape %d ipu%d: compute events %d != cells %d", shape, k, compute[k], fr.ComputeNanos(k))
			}
		}
		if fr.Spans == nil {
			for i := 0; i < steps; i++ {
				if stepCompute[i] != fr.StepNanos(i) {
					t.Fatalf("shape %d step %d: compute events %d != step time %d", shape, i, stepCompute[i], fr.StepNanos(i))
				}
			}
		}

		r := NewRecorder(1, 1)
		r.SetMeta(meta)
		r.Record(fr)
		var buf bytes.Buffer
		if err := WriteChrome(&buf, []ChromeProcess{{Name: "m", Meta: meta, Batches: r.Snapshot()}}); err != nil {
			t.Fatal(err)
		}
		if _, err := LintChrome(buf.Bytes()); err != nil {
			t.Fatalf("shape %d: chrome export fails lint: %v", shape, err)
		}
	})
}
