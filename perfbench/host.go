package main

import (
	"runtime"
	"syscall"
	"time"
)

// calibGflops times a fixed, benchmark-owned 128×128 matmul and returns the
// median rate of five repetitions in GFLOP/s. It shares no code with the
// program, so it moves only when the machine does: a run whose calibration
// dropped was slowed by the host, not by the code under test.
func calibGflops() float64 {
	const n, iters, reps = 128, 8, 5
	a, b, c := make([]float32, n*n), make([]float32, n*n), make([]float32, n*n)
	for i := range a {
		a[i] = float32(i%7) * 0.25
		b[i] = float32(i%5) * 0.5
	}
	rates := make([]float64, reps)
	for r := range rates {
		t0 := time.Now()
		for it := 0; it < iters; it++ {
			for i := 0; i < n; i++ {
				ci := c[i*n : (i+1)*n]
				for j := range ci {
					ci[j] = 0
				}
				for k := 0; k < n; k++ {
					aik := a[i*n+k]
					bk := b[k*n : (k+1)*n]
					for j := range ci {
						ci[j] += aik * bk[j]
					}
				}
			}
		}
		rates[r] = 2 * n * n * n * iters / float64(time.Since(t0).Nanoseconds())
	}
	return median(rates)
}

// procSample is the process counters the runtime metrics difference over
// a phase.
type procSample struct {
	at    time.Time
	cpu   time.Duration // user + system CPU of the whole process
	alloc uint64        // cumulative bytes allocated
	numGC uint32
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: m.TotalAlloc,
		numGC: m.NumGC,
	}
}

// procDelta is the process cost of one phase per unit of work.
type procDelta struct {
	cpuMsPer   float64
	allocKBPer float64
	gcPerS     float64
}

func diffProc(a, b procSample, units int) procDelta {
	if units < 1 {
		units = 1
	}
	return procDelta{
		cpuMsPer:   ms(b.cpu-a.cpu) / float64(units),
		allocKBPer: float64(b.alloc-a.alloc) / 1024 / float64(units),
		gcPerS:     float64(b.numGC-a.numGC) / b.at.Sub(a.at).Seconds(),
	}
}

// liveHeapMiB forces one garbage collection and returns the live heap.
// One collection leaves sync.Pool contents in the pools' victim caches, so
// pooled plans still count.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// dropPools collects twice, emptying every sync.Pool and its victim cache,
// so state left by earlier set-ups does not count toward the next one's
// live heap.
func dropPools() {
	runtime.GC()
	runtime.GC()
}
