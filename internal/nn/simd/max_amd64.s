// AVX running-max fold (max.go): dst[i] = src[i] when src[i] > dst[i],
// four f64 or eight f32 lanes per instruction, the <lane tail one
// scalar at a time. VMAXPx/VMAXSx return their first source when it
// compares greater and their second source otherwise, NaN and ±0
// included, so with the new value v first and the running max r
// second ("VMAXPD r, v, dst" in Go operand order) each lane is exactly
// the strict `v > r ? v : r`. Leaf functions, no stack frame, nothing
// escapes.

#include "textflag.h"

// func MaxF64(dst, src []float64)
TEXT ·MaxF64(SB), NOSPLIT, $0-48
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), DX
	CMPQ    DX, CX
	CMOVQLT DX, CX // n = min(len(dst), len(src))
	MOVQ    CX, BX
	ANDQ    $-4, BX // vector limit
	XORQ    AX, AX

max64_vec:
	CMPQ    AX, BX
	JGE     max64_tail
	VMOVUPD (SI)(AX*8), Y0
	VMAXPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     max64_vec

max64_tail:
	CMPQ   AX, CX
	JGE    max64_done
	VMOVSD (SI)(AX*8), X0
	VMAXSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    max64_tail

max64_done:
	VZEROUPPER
	RET

// func MaxF32(dst, src []float32)
TEXT ·MaxF32(SB), NOSPLIT, $0-48
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), DX
	CMPQ    DX, CX
	CMOVQLT DX, CX // n = min(len(dst), len(src))
	MOVQ    CX, BX
	ANDQ    $-8, BX // vector limit
	XORQ    AX, AX

max32_vec:
	CMPQ    AX, BX
	JGE     max32_tail
	VMOVUPS (SI)(AX*4), Y0
	VMAXPS  (DI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     max32_vec

max32_tail:
	CMPQ   AX, CX
	JGE    max32_done
	VMOVSS (SI)(AX*4), X0
	VMAXSS (DI)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	JMP    max32_tail

max32_done:
	VZEROUPPER
	RET
