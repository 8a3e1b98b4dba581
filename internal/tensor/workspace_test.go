package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// DefaultBlock is the cache-blocking tile edge used by MatMulBlocked.
const DefaultBlock = 64

// MatMulBlocked computes a·b with square cache blocking (tile edge bs; pass
// 0 for DefaultBlock). Mirrors the "IPU blocked" / "GPU shmem" kernels.
func MatMulBlocked(a, b *Matrix, bs int) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulBlockedInto(out, a, b, bs)
	return out
}

// MatMulBlockedInto is MatMulBlocked writing into caller-owned dst
// (shape a.Rows×b.Cols, overwritten). dst must not alias a or b.
func MatMulBlockedInto(dst, a, b *Matrix, bs int) {
	checkMulShapes(a, b)
	checkIntoShape("MatMulBlockedInto", dst, a.Rows, b.Cols)
	if bs <= 0 {
		bs = DefaultBlock
	}
	dst.Zero()
	out := dst
	m, n, k := a.Rows, a.Cols, b.Cols
	for ii := 0; ii < m; ii += bs {
		iMax := min(ii+bs, m)
		for pp := 0; pp < n; pp += bs {
			pMax := min(pp+bs, n)
			for jj := 0; jj < k; jj += bs {
				jMax := min(jj+bs, k)
				for i := ii; i < iMax; i++ {
					arow := a.Row(i)
					orow := out.Row(i)
					for p := pp; p < pMax; p++ {
						av := arow[p]
						if av == 0 {
							continue
						}
						brow := b.Data[p*k : (p+1)*k]
						for j := jj; j < jMax; j++ {
							orow[j] += av * brow[j]
						}
					}
				}
			}
		}
	}
}

// MulVec computes m·x for a column vector x (len == Cols).
func (m *Matrix) MulVec(x []float32) []float32 {
	out := make([]float32, m.Rows)
	m.MulVecInto(out, x)
	return out
}

// MulVecInto computes m·x into dst (len == Rows, fully overwritten).
func (m *Matrix) MulVecInto(dst, x []float32) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVec length %d != cols %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MulVecInto dst length %d != rows %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float32
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

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

	mb := New(7, 5)
	MatMulBlockedInto(mb, a, b, 4)
	check("MatMulBlockedInto", MatMulBlocked(a, b, 4), mb)

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

	x := make([]float32, a.Cols)
	for i := range x {
		x[i] = rng.Float32()
	}
	dst := make([]float32, a.Rows)
	a.MulVecInto(dst, x)
	want := a.MulVec(x)
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("MulVecInto[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestIntoKernelShapeChecks(t *testing.T) {
	a := New(3, 4)
	b := New(4, 2)
	bad := New(3, 3)
	for label, f := range map[string]func(){
		"MatMulInto":         func() { MatMulInto(bad, a, b) },
		"MatMulBlockedInto":  func() { MatMulBlockedInto(bad, a, b, 0) },
		"MatMulParallelInto": func() { MatMulParallelInto(bad, a, b) },
		"TransposeInto":      func() { TransposeInto(bad, a) },
		"AddRowVectorInto":   func() { AddRowVectorInto(bad, a, make([]float32, 4)) },
		"MulVecInto":         func() { a.MulVecInto(make([]float32, 2), make([]float32, 4)) },
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
