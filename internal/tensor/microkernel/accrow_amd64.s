//go:build !purego

#include "textflag.h"

// maskTable<> is eight all-ones lanes, then eight zero lanes: the eight
// lanes from element 8-w are a VMASKMOVPS mask of the first w.
DATA maskTable<>+0(SB)/8, $0xffffffffffffffff
DATA maskTable<>+8(SB)/8, $0xffffffffffffffff
DATA maskTable<>+16(SB)/8, $0xffffffffffffffff
DATA maskTable<>+24(SB)/8, $0xffffffffffffffff
DATA maskTable<>+32(SB)/8, $0
DATA maskTable<>+40(SB)/8, $0
DATA maskTable<>+48(SB)/8, $0
DATA maskTable<>+56(SB)/8, $0
GLOBL maskTable<>(SB), RODATA|NOPTR, $64

// func accRowAVX2(dst, a *float32, aStride int, b *float32, bStride, n, k int, skipZero bool)
//
// Y0–Y3 hold up to 32 columns of dst for a whole pass over the n terms:
// each term broadcasts a[p] into Y4 and adds its product with row p of
// b to every accumulator, one VMULPS then one VADDPS. With skipZero, a
// term whose a[p] is ±0 adds −0 in place of its products, with no
// branch: VCMPPS NEQ_UQ against +0 (Y12) leaves Y10 all zeros exactly
// for ±0 (NaN compares unequal and is kept), Y13 = Y11 ANDN Y10 is −0
// there and +0 otherwise, and each product becomes (product AND Y10) OR
// Y13. In round-to-nearest x + (−0) = x for every float32 x, −0 and NaN
// included, so each accumulator keeps the bits that passing the term
// over leaves it, and a skipped row's ±Inf or NaN never reaches it. (+0
// would turn a −0 accumulator into +0; multiplying through would turn
// 0·Inf into NaN.) The AND/OR pair measured cheaper than VBLENDVPS in
// BenchmarkTrainProducts (internal/tensor).
TEXT ·accRowAVX2(SB), NOSPLIT, $0-57
	MOVQ    dst+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    aStride+16(FP), R8
	SHLQ    $2, R8                   // bytes between terms of a
	MOVQ    b+24(FP), DX
	MOVQ    bStride+32(FP), R9
	SHLQ    $2, R9                   // bytes between rows of b
	MOVQ    n+40(FP), R10
	MOVQ    k+48(FP), R11            // columns left
	MOVBQZX skipZero+56(FP), R12
	TESTQ   R10, R10
	JEQ     done
	VXORPS   Y12, Y12, Y12
	VPCMPEQD Y11, Y11, Y11
	VPSLLD   $31, Y11, Y11           // −0 in every lane

block32:
	CMPQ    R11, $32
	JLT     rest
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    SI, AX                   // &a[p]
	MOVQ    DX, BX                   // &b[p][column]
	MOVQ    R10, CX

loop32:
	VBROADCASTSS (AX), Y4
	VMULPS       (BX), Y4, Y5
	VMULPS       32(BX), Y4, Y6
	VMULPS       64(BX), Y4, Y7
	VMULPS       96(BX), Y4, Y8
	TESTQ        R12, R12
	JEQ          add32
	VCMPPS       $4, Y12, Y4, Y10    // NEQ_UQ: all ones unless a[p] is ±0
	VANDNPS      Y11, Y10, Y13
	VANDPS       Y10, Y5, Y5
	VORPS        Y13, Y5, Y5
	VANDPS       Y10, Y6, Y6
	VORPS        Y13, Y6, Y6
	VANDPS       Y10, Y7, Y7
	VORPS        Y13, Y7, Y7
	VANDPS       Y10, Y8, Y8
	VORPS        Y13, Y8, Y8

add32:
	VADDPS  Y5, Y0, Y0
	VADDPS  Y6, Y1, Y1
	VADDPS  Y7, Y2, Y2
	VADDPS  Y8, Y3, Y3
	ADDQ    R8, AX
	ADDQ    R9, BX
	DECQ    CX
	JNZ     loop32
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $32, R11
	JMP     block32

rest:
	// 0 ≤ R11 < 32 columns are left: c = (R11-1)/8 whole 8-lane chunks
	// in Y0.., then a last group of w = R11-8c lanes (1–8) in Y3 under
	// the mask Y9. From here on R11 is the last group's byte offset, 32c;
	// chunk i is present when 32(i+1) ≤ R11.
	TESTQ      R11, R11
	JEQ        done
	LEAQ       -1(R11), AX
	SHRQ       $3, AX
	MOVQ       AX, BX
	SHLQ       $3, BX
	SUBQ       BX, R11
	NEGQ       R11
	LEAQ       maskTable<>+32(SB), BX
	VMOVDQU    (BX)(R11*4), Y9
	SHLQ       $5, AX
	MOVQ       AX, R11
	CMPQ       R11, $32
	JLT        loadLast
	VMOVUPS    (DI), Y0
	CMPQ       R11, $64
	JLT        loadLast
	VMOVUPS    32(DI), Y1
	CMPQ       R11, $96
	JLT        loadLast
	VMOVUPS    64(DI), Y2

loadLast:
	VMASKMOVPS (DI)(R11*1), Y9, Y3
	MOVQ       SI, AX
	MOVQ       DX, BX
	MOVQ       R10, CX

loopRest:
	VBROADCASTSS (AX), Y4
	VMASKMOVPS   (BX)(R11*1), Y9, Y8 // masked-off lanes load +0 and are never stored
	VMULPS       Y8, Y4, Y8
	CMPQ         R11, $32
	JLT          maskRest
	VMULPS       (BX), Y4, Y5
	CMPQ         R11, $64
	JLT          maskRest
	VMULPS       32(BX), Y4, Y6
	CMPQ         R11, $96
	JLT          maskRest
	VMULPS       64(BX), Y4, Y7

maskRest:
	// Products of chunks that are not present are masked but never added.
	TESTQ     R12, R12
	JEQ       addRest
	VCMPPS    $4, Y12, Y4, Y10       // NEQ_UQ
	VANDNPS   Y11, Y10, Y13
	VANDPS    Y10, Y5, Y5
	VORPS     Y13, Y5, Y5
	VANDPS    Y10, Y6, Y6
	VORPS     Y13, Y6, Y6
	VANDPS    Y10, Y7, Y7
	VORPS     Y13, Y7, Y7
	VANDPS    Y10, Y8, Y8
	VORPS     Y13, Y8, Y8

addRest:
	VADDPS Y8, Y3, Y3
	CMPQ   R11, $32
	JLT    nextRest
	VADDPS Y5, Y0, Y0
	CMPQ   R11, $64
	JLT    nextRest
	VADDPS Y6, Y1, Y1
	CMPQ   R11, $96
	JLT    nextRest
	VADDPS Y7, Y2, Y2

nextRest:
	ADDQ R8, AX
	ADDQ R9, BX
	DECQ CX
	JNZ  loopRest
	CMPQ R11, $32
	JLT  storeLast
	VMOVUPS Y0, (DI)
	CMPQ R11, $64
	JLT  storeLast
	VMOVUPS Y1, 32(DI)
	CMPQ R11, $96
	JLT  storeLast
	VMOVUPS Y2, 64(DI)

storeLast:
	VMASKMOVPS Y3, Y9, (DI)(R11*1)

done:
	VZEROUPPER
	RET
