package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestParallelRowsPartition checks that the ranges cover [0, rows) exactly
// once, in contiguous ranges of the documented size, inline below the
// cutoff and fanned out above it.
func TestParallelRowsPartition(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, rows := range []int{0, 1, 3, 4, 7, 100} {
			for _, work := range []int{0, 1 << 16} {
				visits := make([]int, rows)
				ranges := make([]int, rows) // range length seen by each row
				ParallelRows(rows, work, visits, func(v []int, lo, hi int) {
					for i := lo; i < hi; i++ {
						v[i]++
						ranges[i] = hi - lo
					}
				})
				workers := min(procs, rows)
				chunk := rows
				if workers > 1 && work >= 1<<16 {
					chunk = (rows + workers - 1) / workers
				}
				for i, n := range visits {
					if n != 1 {
						t.Fatalf("procs=%d rows=%d work=%d: row %d visited %d times", procs, rows, work, i, n)
					}
					if want := min(chunk, rows-i/chunk*chunk); ranges[i] != want {
						t.Fatalf("procs=%d rows=%d work=%d: row %d in a range of %d, want %d", procs, rows, work, i, ranges[i], want)
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestParallelKernelsInlineAllocFree pins the reason ParallelRows takes
// its operands by value: below the serial cutoff the parallel matmuls
// must not allocate, or compiled plans lose their zero-alloc steady
// state.
func TestParallelKernelsInlineAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(11))
	a := randMatrix(rng, 1, 64)
	b := randMatrix(rng, 64, 10)
	pb := Pack(b)
	bias := randomBias(rng, 10)
	dst := New(1, 10)
	for name, run := range map[string]func(){
		"MatMulParallelInto":                  func() { MatMulParallelInto(dst, a, b) },
		"MatMulPackedBiasActParallelInto":     func() { MatMulPackedBiasActParallelInto(dst, a, pb, bias, ActReLU) },
		"MatMulPackedBiasActParallelInto/nil": func() { MatMulPackedBiasActParallelInto(dst, a, pb, nil, ActNone) },
	} {
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("%s: %v allocs per inline call, want 0", name, n)
		}
	}
}

// TestParallelMatMulsBitIdentical compares every fan-out matmul with its
// serial kernel by ==, at shapes above the cutoff and at GOMAXPROCS 1
// and 4.
func TestParallelMatMulsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, sh := range [][3]int{{50, 1024, 32}, {1024, 50, 32}, {7, 300, 61}, {3, 4096, 17}} {
			m, n, k := sh[0], sh[1], sh[2]
			a := randMatrix(rng, m, n)
			b := randMatrix(rng, n, k)
			bias := randomBias(rng, k)
			want, got := New(m, k), New(m, k)
			MatMulInto(want, a, b)
			MatMulParallelInto(got, a, b)
			assertEqualMat(t, fmt.Sprintf("procs=%d MatMulParallelInto", procs), sh, want, got)
			pb := Pack(b)
			MatMulPackedColsBiasActInto(want, a, pb, 0, k, bias, ActReLU)
			MatMulPackedBiasActParallelInto(got, a, pb, bias, ActReLU)
			assertEqualMat(t, fmt.Sprintf("procs=%d MatMulPackedBiasActParallelInto", procs), sh, want, got)
		}
		runtime.GOMAXPROCS(prev)
	}
}
