//go:build !purego

#include "textflag.h"

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID                    // EAX: the highest basic leaf
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	// ECX bit 27: OSXSAVE (XGETBV is usable); bit 28: AVX.
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV                   // EDX:EAX = XCR0
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	// EBX bit 5: AVX2.
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func mul1x32AVX2(dst, a, pan *float32, n int)
//
// Four panels of n×NR float32s lie back to back from pan. Y0–Y3 hold
// one panel's eight chains each; every step broadcasts a[p] and adds
// its product with row p of each panel: one VMULPS, then one VADDPS.
TEXT ·mul1x32AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ pan+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ CX, R8
	SHLQ $5, R8              // bytes per panel: n*NR*4
	LEAQ (DX)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	XORQ AX, AX              // byte offset of row p within a panel
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ CX, CX
	JEQ   store4

loop4:
	VBROADCASTSS (SI), Y4
	VMULPS       (DX)(AX*1), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       (R9)(AX*1), Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMULPS       (R10)(AX*1), Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMULPS       (R11)(AX*1), Y4, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $4, SI
	ADDQ         $32, AX
	DECQ         CX
	JNZ          loop4

store4:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// func mul1x8AVX2(dst, a, pan *float32, n int)
TEXT ·mul1x8AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ pan+16(FP), DX
	MOVQ n+24(FP), CX
	VXORPS Y0, Y0, Y0
	TESTQ  CX, CX
	JEQ    store1

loop1:
	VBROADCASTSS (SI), Y4
	VMULPS       (DX), Y4, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         $4, SI
	ADDQ         $32, DX
	DECQ         CX
	JNZ          loop1

store1:
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET
