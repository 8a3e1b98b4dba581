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
// term whose a[p] has no bits but the sign (±0) is passed over.
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
	TESTQ R12, R12
	JEQ   term32
	MOVL  (AX), R13
	SHLL  $1, R13                    // zero exactly when a[p] is ±0
	JEQ   next32

term32:
	VBROADCASTSS (AX), Y4
	VMULPS       (BX), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       32(BX), Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMULPS       64(BX), Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMULPS       96(BX), Y4, Y8
	VADDPS       Y8, Y3, Y3

next32:
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
	TESTQ R12, R12
	JEQ   termRest
	MOVL  (AX), R13
	SHLL  $1, R13
	JEQ   nextRest

termRest:
	VBROADCASTSS (AX), Y4
	CMPQ         R11, $32
	JLT          termLast
	VMULPS       (BX), Y4, Y5
	VADDPS       Y5, Y0, Y0
	CMPQ         R11, $64
	JLT          termLast
	VMULPS       32(BX), Y4, Y6
	VADDPS       Y6, Y1, Y1
	CMPQ         R11, $96
	JLT          termLast
	VMULPS       64(BX), Y4, Y7
	VADDPS       Y7, Y2, Y2

termLast:
	// Masked-off lanes load +0 and are never stored.
	VMASKMOVPS (BX)(R11*1), Y9, Y8
	VMULPS     Y8, Y4, Y8
	VADDPS     Y8, Y3, Y3

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
