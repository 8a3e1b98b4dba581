package tensor

// Scratch is the workspace demand of one cycle: float32 and complex128
// elements, and the Take calls that each need a Matrix header. Every
// kernel that stages intermediates through a Workspace declares its
// demand beside its code, as a function of the rows it runs at.
type Scratch struct {
	Floats, Complex, Headers int
}

// Max returns the field-wise maximum of s and o: the backing a workspace
// needs to run both cycles, one after the other, without allocating.
func (s Scratch) Max(o Scratch) Scratch {
	return Scratch{Floats: max(s.Floats, o.Floats), Complex: max(s.Complex, o.Complex), Headers: max(s.Headers, o.Headers)}
}

// Bytes is the backing size of the demand's elements — what one idle
// plan instance holds onto between executions.
func (s Scratch) Bytes() int { return 4*s.Floats + 16*s.Complex }

// Workspace is a caller-owned scratch arena for the destination-passing
// ("Into") kernels. A cycle of use is: Reset, then any number of Take /
// TakeVec / TakeComplex calls whose results are valid until the next Reset.
//
// Compiled plans size each workspace to the largest cycle their kernels
// declare (NewWorkspace(demand)), so no cycle they run allocates. A
// request that overflows the backing falls back to a one-off allocation,
// and the next Reset grows the backing array to the full cycle demand,
// so a workspace made with no demand reaches its high-water mark after
// one cycle at the largest shapes — the behaviour the tests use as the
// oracle of the declarations.
//
// A Workspace is not safe for concurrent use; pool one per worker.
type Workspace struct {
	buf  []float32
	off  int
	need int

	cbuf  []complex128
	coff  int
	cneed int

	// hdrs recycles Matrix headers so Take itself allocates nothing at
	// steady state. Growing the slice may move it; pointers handed out
	// earlier keep the old backing array alive and stay valid.
	hdrs []Matrix
	hoff int
}

// NewWorkspace returns a workspace whose backing holds exactly the given
// demand; the zero Scratch gives an empty arena that grows on demand.
func NewWorkspace(demand Scratch) *Workspace {
	return &Workspace{
		buf:  make([]float32, demand.Floats),
		cbuf: make([]complex128, demand.Complex),
		hdrs: make([]Matrix, demand.Headers),
	}
}

// Reset recycles the arena: all previously taken buffers are invalidated,
// and the backing arrays grow to the previous cycle's total demand so the
// next identical cycle allocates nothing. Headers the previous cycle did
// not take are dropped: they point into backing arrays, or one-off
// buffers, of older cycles, which a workspace whose cycles shrink (a
// training layer's evaluation Forward after its Backward) would
// otherwise keep alive.
func (w *Workspace) Reset() {
	if w.need > len(w.buf) {
		w.buf = make([]float32, w.need)
	}
	if w.cneed > len(w.cbuf) {
		w.cbuf = make([]complex128, w.cneed)
	}
	clear(w.hdrs[w.hoff:])
	w.off, w.need = 0, 0
	w.coff, w.cneed = 0, 0
	w.hoff = 0
}

// TakeVec returns a scratch float32 slice of length n with arbitrary
// contents, valid until the next Reset.
func (w *Workspace) TakeVec(n int) []float32 {
	w.need += n
	if w.off+n > len(w.buf) {
		return make([]float32, n)
	}
	s := w.buf[w.off : w.off+n : w.off+n]
	w.off += n
	return s
}

// Take returns a rows×cols scratch matrix with arbitrary contents, valid
// until the next Reset. Kernels that accumulate (MatMulInto and friends)
// zero their destination themselves, so stale contents are harmless.
func (w *Workspace) Take(rows, cols int) *Matrix {
	data := w.TakeVec(rows * cols)
	if w.hoff == len(w.hdrs) {
		w.hdrs = append(w.hdrs, Matrix{})
	}
	m := &w.hdrs[w.hoff]
	w.hoff++
	m.Rows, m.Cols, m.Data = rows, cols, data
	return m
}

// Transpose returns mᵀ in a matrix taken from the workspace, valid until
// the next Reset.
func (w *Workspace) Transpose(m *Matrix) *Matrix {
	t := w.Take(m.Cols, m.Rows)
	TransposeInto(t, m)
	return t
}

// MatMul returns a·b, computed by MatMulParallelInto, in a matrix taken
// from the workspace, valid until the next Reset.
func (w *Workspace) MatMul(a, b *Matrix) *Matrix {
	out := w.Take(a.Rows, b.Cols)
	MatMulParallelInto(out, a, b)
	return out
}

// TakeComplex returns a scratch complex128 slice of length n with
// arbitrary contents, valid until the next Reset. It backs the FFT path of
// the circulant layer.
func (w *Workspace) TakeComplex(n int) []complex128 {
	w.cneed += n
	if w.coff+n > len(w.cbuf) {
		return make([]complex128, n)
	}
	s := w.cbuf[w.coff : w.coff+n : w.coff+n]
	w.coff += n
	return s
}

// Capacity reports the arena's backing as a demand: the float32 and
// complex128 elements it holds and the headers it recycles.
func (w *Workspace) Capacity() Scratch {
	return Scratch{Floats: len(w.buf), Complex: len(w.cbuf), Headers: len(w.hdrs)}
}
