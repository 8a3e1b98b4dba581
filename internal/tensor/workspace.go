package tensor

// Workspace is a caller-owned scratch arena for the destination-passing
// ("Into") kernels. A cycle of use is: Reset, then any number of Take /
// TakeVec / TakeComplex calls whose results are valid until the next Reset.
//
// The arena sizes itself to the high-water mark of a cycle: requests that
// overflow the current backing array fall back to a one-off allocation, and
// the next Reset grows the backing array to the full cycle demand. After
// one warm-up cycle at the largest shapes, every subsequent cycle is
// allocation-free — the property the compiled inference plans rely on.
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

// NewWorkspace returns an empty workspace; the arena grows on demand.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset recycles the arena: all previously taken buffers are invalidated,
// and the backing arrays grow to the previous cycle's total demand so the
// next identical cycle allocates nothing.
func (w *Workspace) Reset() {
	if w.need > len(w.buf) {
		w.buf = make([]float32, w.need)
	}
	if w.cneed > len(w.cbuf) {
		w.cbuf = make([]complex128, w.cneed)
	}
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

// FootprintBytes reports the arena's current backing size — what one
// idle plan instance holds onto between executions.
func (w *Workspace) FootprintBytes() int {
	return 4*len(w.buf) + 16*len(w.cbuf)
}
