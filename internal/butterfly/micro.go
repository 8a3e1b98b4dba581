package butterfly

import (
	"repro/internal/tensor"
)

// Micro-kernel pairs sweeps: the same per-pair rank-one arithmetic as
// applyFactorRows/applyFactorRowsEpilogue, restructured so the Go
// compiler can eliminate bounds checks and keep the coefficient streams
// in registers. Early stages (half ∈ {1,2,4}) get fully unrolled blocks;
// wider stages hoist every slice header to a common length so the inner
// pair loop is check-free. Each output element is produced by the exact
// reference expression (A·xt + B·xb etc.), so results are bit-identical.

// MicroVariant names the kernel variant ApplyInto runs, which the plan
// compiler stamps into step metadata.
func (b *Butterfly) MicroVariant() string { return "unrolled" }

// applyFactorRowsMicro dispatches one stage sweep over the rows
// [lo, hi) to the specialized kernel for its pair distance.
func applyFactorRowsMicro(f *Factor, in, out *tensor.Matrix, lo, hi int) {
	switch f.Stage {
	case 1:
		factorRowsHalf1(f, in, out, lo, hi)
	case 2:
		factorRowsHalf2(f, in, out, lo, hi)
	case 3:
		factorRowsHalf4(f, in, out, lo, hi)
	default:
		factorRowsWide(f, in, out, lo, hi)
	}
}

// applyFactorRowsEpilogueMicro is the fused-tail form. The final factor
// of a butterfly is its widest stage, so the wide kernel carries the
// inline epilogue; the rare narrow cases (N < 16) fall back to the
// reference epilogue sweep, which is bit-identical by construction.
func applyFactorRowsEpilogueMicro(f *Factor, in, out *tensor.Matrix, bias []float32, act tensor.Activation) {
	if f.Stage < 4 {
		applyFactorRowsEpilogue(f, in, out, bias, act)
		return
	}
	factorRowsWideEpilogue(f, in, out, bias, act)
}

// factorRowsHalf1 handles stage 1: adjacent pairs (2p, 2p+1).
func factorRowsHalf1(f *Factor, in, out *tensor.Matrix, lo, hi int) {
	n := f.N
	pairs := n >> 1
	A := f.A[:pairs:pairs]
	B := f.B[:pairs:pairs]
	C := f.C[:pairs:pairs]
	D := f.D[:pairs:pairs]
	for r := lo; r < hi; r++ {
		src := in.Row(r)
		dst := out.Row(r)
		for p := range A {
			j := p << 1
			sc := src[j : j+2 : j+2]
			dc := dst[j : j+2 : j+2]
			xt, xb := sc[0], sc[1]
			dc[0] = A[p]*xt + B[p]*xb
			dc[1] = C[p]*xt + D[p]*xb
		}
	}
}

// factorRowsHalf2 handles stage 2: blocks of 4 with pair distance 2.
func factorRowsHalf2(f *Factor, in, out *tensor.Matrix, lo, hi int) {
	n := f.N
	pairs := n >> 1
	A := f.A[:pairs:pairs]
	B := f.B[:pairs:pairs]
	C := f.C[:pairs:pairs]
	D := f.D[:pairs:pairs]
	for r := lo; r < hi; r++ {
		src := in.Row(r)
		dst := out.Row(r)
		p := 0
		for s := 0; s+4 <= n; s += 4 {
			sc := src[s : s+4 : s+4]
			dc := dst[s : s+4 : s+4]
			ac := A[p : p+2 : p+2]
			bc := B[p : p+2 : p+2]
			cc := C[p : p+2 : p+2]
			ec := D[p : p+2 : p+2]
			x0, x1, x2, x3 := sc[0], sc[1], sc[2], sc[3]
			dc[0] = ac[0]*x0 + bc[0]*x2
			dc[2] = cc[0]*x0 + ec[0]*x2
			dc[1] = ac[1]*x1 + bc[1]*x3
			dc[3] = cc[1]*x1 + ec[1]*x3
			p += 2
		}
	}
}

// factorRowsHalf4 handles stage 3: blocks of 8 with pair distance 4.
func factorRowsHalf4(f *Factor, in, out *tensor.Matrix, lo, hi int) {
	n := f.N
	pairs := n >> 1
	A := f.A[:pairs:pairs]
	B := f.B[:pairs:pairs]
	C := f.C[:pairs:pairs]
	D := f.D[:pairs:pairs]
	for r := lo; r < hi; r++ {
		src := in.Row(r)
		dst := out.Row(r)
		p := 0
		for s := 0; s+8 <= n; s += 8 {
			sc := src[s : s+8 : s+8]
			dc := dst[s : s+8 : s+8]
			ac := A[p : p+4 : p+4]
			bc := B[p : p+4 : p+4]
			cc := C[p : p+4 : p+4]
			ec := D[p : p+4 : p+4]
			x0, x4 := sc[0], sc[4]
			dc[0] = ac[0]*x0 + bc[0]*x4
			dc[4] = cc[0]*x0 + ec[0]*x4
			x1, x5 := sc[1], sc[5]
			dc[1] = ac[1]*x1 + bc[1]*x5
			dc[5] = cc[1]*x1 + ec[1]*x5
			x2, x6 := sc[2], sc[6]
			dc[2] = ac[2]*x2 + bc[2]*x6
			dc[6] = cc[2]*x2 + ec[2]*x6
			x3, x7 := sc[3], sc[7]
			dc[3] = ac[3]*x3 + bc[3]*x7
			dc[7] = cc[3]*x3 + ec[3]*x7
			p += 4
		}
	}
}

// factorRowsWide handles stages with pair distance ≥ 8: every slice in
// the block — inputs, outputs, and the four coefficient streams — is
// re-headed to the same length, so ranging over the coefficients makes
// the whole pair loop bounds-check-free.
func factorRowsWide(f *Factor, in, out *tensor.Matrix, lo, hi int) {
	half := 1 << (f.Stage - 1)
	block := half << 1
	n := f.N
	for r := lo; r < hi; r++ {
		src := in.Row(r)
		dst := out.Row(r)
		p := 0
		for s := 0; s < n; s += block {
			ac := f.A[p : p+half : p+half]
			bc := f.B[p : p+half : p+half]
			cc := f.C[p : p+half : p+half]
			ec := f.D[p : p+half : p+half]
			st := src[s : s+half : s+half]
			sb := src[s+half : s+block : s+block]
			dt := dst[s : s+half : s+half]
			db := dst[s+half : s+block : s+block]
			sb = sb[:len(ac)]
			dt = dt[:len(ac)]
			db = db[:len(ac)]
			st = st[:len(ac)]
			for k := range ac {
				xt, xb := st[k], sb[k]
				dt[k] = ac[k]*xt + bc[k]*xb
				db[k] = cc[k]*xt + ec[k]*xb
			}
			p += half
		}
	}
}

// factorRowsWideEpilogue is factorRowsWide with the fused bias/act tail
// applied per pair, exactly as applyFactorRowsEpilogue does.
func factorRowsWideEpilogue(f *Factor, in, out *tensor.Matrix, bias []float32, act tensor.Activation) {
	half := 1 << (f.Stage - 1)
	block := half << 1
	n := f.N
	for r := 0; r < in.Rows; r++ {
		src := in.Row(r)
		dst := out.Row(r)
		p := 0
		for s := 0; s < n; s += block {
			ac := f.A[p : p+half : p+half]
			bc := f.B[p : p+half : p+half]
			cc := f.C[p : p+half : p+half]
			ec := f.D[p : p+half : p+half]
			st := src[s : s+half : s+half][:len(ac)]
			sb := src[s+half : s+block : s+block][:len(ac)]
			dt := dst[s : s+half : s+half][:len(ac)]
			db := dst[s+half : s+block : s+block][:len(ac)]
			if bias != nil {
				bt := bias[s : s+half : s+half][:len(ac)]
				bb := bias[s+half : s+block : s+block][:len(ac)]
				for k := range ac {
					xt, xb := st[k], sb[k]
					vt := ac[k]*xt + bc[k]*xb
					vb := cc[k]*xt + ec[k]*xb
					vt += bt[k]
					vb += bb[k]
					dt[k] = act.Apply(vt)
					db[k] = act.Apply(vb)
				}
			} else {
				for k := range ac {
					xt, xb := st[k], sb[k]
					dt[k] = act.Apply(ac[k]*xt + bc[k]*xb)
					db[k] = act.Apply(cc[k]*xt + ec[k]*xb)
				}
			}
			p += half
		}
	}
}
