package tensor

import (
	"math/rand"
	"testing"
)

// TestIntoKernelsMatchAllocatingKernels checks every destination-passing
// kernel against its allocating wrapper, bit-for-bit.
func TestIntoKernelsMatchAllocatingKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := New(7, 13)
	a.FillRandom(rng, 1)
	b := New(13, 5)
	b.FillRandom(rng, 1)

	check := func(label string, want, got *Matrix) {
		t.Helper()
		if d := MaxAbsDiff(want, got); d != 0 {
			t.Errorf("%s: differs from allocating kernel by %g", label, d)
		}
	}

	mm := New(7, 5)
	MatMulInto(mm, a, b)
	check("MatMulInto", MatMul(a, b), mm)

	// Into kernels must overwrite stale destination contents.
	mm.Data[0] = 1e9
	MatMulInto(mm, a, b)
	check("MatMulInto over stale dst", MatMul(a, b), mm)

	mp := New(7, 5)
	MatMulParallelInto(mp, a, b)
	check("MatMulParallelInto", MatMulParallel(a, b), mp)

	tr := New(13, 7)
	TransposeInto(tr, a)
	check("TransposeInto", a.Transpose(), tr)

	v := make([]float32, a.Cols)
	for i := range v {
		v[i] = rng.Float32()
	}
	av := New(7, 13)
	AddRowVectorInto(av, a, v)
	ref := a.Clone()
	AddRowVector(ref, v)
	check("AddRowVectorInto", ref, av)
}

func TestIntoKernelShapeChecks(t *testing.T) {
	a := New(3, 4)
	b := New(4, 2)
	bad := New(3, 3)
	for label, f := range map[string]func(){
		"MatMulInto":         func() { MatMulInto(bad, a, b) },
		"MatMulParallelInto": func() { MatMulParallelInto(bad, a, b) },
		"TransposeInto":      func() { TransposeInto(bad, a) },
		"AddRowVectorInto":   func() { AddRowVectorInto(bad, a, make([]float32, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on shape mismatch", label)
				}
			}()
			f()
		}()
	}
}

// TestWorkspaceSteadyStateAllocationFree verifies the arena contract: one
// warm-up cycle plus a Reset, and identical subsequent cycles allocate
// nothing.
func TestWorkspaceSteadyStateAllocationFree(t *testing.T) {
	ws := NewWorkspace(Scratch{})
	cycle := func() {
		ws.Reset()
		m := ws.Take(8, 16)
		v := ws.TakeVec(32)
		c := ws.TakeComplex(64)
		m.Data[0] = 1
		v[0] = 1
		c[0] = 1
	}
	cycle() // warm-up: records demand
	cycle() // grows arena at Reset
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Errorf("steady-state workspace cycle allocates %.1f objects, want 0", avg)
	}
}

// TestWorkspaceOverflowStaysCorrect checks that buffers handed out before
// and after an arena overflow never alias each other within a cycle.
func TestWorkspaceOverflowStaysCorrect(t *testing.T) {
	ws := NewWorkspace(Scratch{})
	ws.Reset()
	var ms []*Matrix
	for i := 0; i < 6; i++ {
		m := ws.Take(4, 4+i) // growing shapes force mid-cycle overflows
		for j := range m.Data {
			m.Data[j] = float32(i)
		}
		ms = append(ms, m)
	}
	for i, m := range ms {
		for _, v := range m.Data {
			if v != float32(i) {
				t.Fatalf("buffer %d was clobbered: found %v", i, v)
			}
		}
	}
}

// TestWorkspaceSizedToDemandRunsFirstCycleAllocationFree pins
// NewWorkspace(demand): its backing is exactly the demand, and the first
// cycle within it allocates nothing.
func TestWorkspaceSizedToDemandRunsFirstCycleAllocationFree(t *testing.T) {
	demand := Scratch{Floats: 8*16 + 32, Complex: 64, Headers: 1}
	// AllocsPerRun makes one call more than it averages over; each call
	// runs the first cycle of a fresh workspace.
	const runs = 20
	fresh := make([]*Workspace, runs+1)
	for i := range fresh {
		if fresh[i] = NewWorkspace(demand); fresh[i].Capacity() != demand {
			t.Fatalf("backing %+v, want %+v", fresh[i].Capacity(), demand)
		}
	}
	next := 0
	if avg := testing.AllocsPerRun(runs, func() {
		ws := fresh[next]
		next++
		ws.Reset()
		ws.Take(8, 16)
		ws.TakeVec(32)
		ws.TakeComplex(64)
	}); avg != 0 {
		t.Errorf("a first cycle within the demand allocated %.1f objects, want 0", avg)
	}
}
