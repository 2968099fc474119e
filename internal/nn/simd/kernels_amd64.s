// SSE f32 kernel, with AVX and AVX-512 wide loops. The summation
// order is specified by the Ref functions in ref.go; every
// instruction sequence here is the literal SIMD transcription of that
// order, so asm and reference are bit-identical. MULPS/ADDPS only —
// no FMA (the reference cannot fuse either), no MAXPS for ReLU (the
// clamp stays in Go to keep the NaN rule). Leaf functions, no stack
// frame, nothing escapes.

#include "textflag.h"

// func MatVecBiasF32(dst, x, w, b []float32, rows, cols int)
//
// Per row: wide inputs first drain 16-column superblocks into four
// round-robin quad accumulators X0..X3, combined as (X0+X2)+(X1+X3);
// the leftover full 4-column blocks accumulate into the combined quad
// (narrow rows start there with a zero quad); lanes fold as
// (l0+l2)+(l1+l3); add bias; scalar remainder ascending.
//
// Three wide loops give that order bit for bit: SSE (four quads),
// AVX (two YMM pairs) and, with AVX-512, a ZMM loop that drains four
// rows per pass. The ZMM loop leaves each row's combined quad in
// X12..X15 and CX counts the rows still pending; each then takes the
// shared quad/fold/remainder tail as its own row, in row order.
TEXT ·MatVecBiasF32(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ b_base+72(FP), BX
	MOVQ rows+96(FP), R8
	MOVQ cols+104(FP), R9

	MOVQ R9, R12
	ANDQ $-16, R12 // R12 = cols &^ 15: superblock limit
	MOVQ R9, R13
	ANDQ $-4, R13  // R13 = cols &^ 3: quad limit
	XORQ CX, CX    // rows drained by the ZMM loop, tails pending

	TESTQ R8, R8
	JLE  mvb_done

mvb_row:
	TESTQ CX, CX
	JNZ   mvb_pending
	XORPS X0, X0
	XORQ  R11, R11 // i = 0
	CMPQ  R9, $32
	JLT  mvb_quad  // narrow: single quad accumulator only

	CMPB ·useAVX512(SB), $0
	JEQ  mvb_wide_ymm
	CMPQ R8, $4
	JGE  mvb_wide_zmm

mvb_wide_ymm:
	CMPB ·useAVX(SB), $0
	JNE  mvb_wide_avx

	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
mvb_wide16:
	CMPQ   R11, R12
	JGE    mvb_combine
	MOVUPS (DX)(R11*4), X4
	MOVUPS (SI)(R11*4), X5
	MULPS  X5, X4
	ADDPS  X4, X0
	MOVUPS 16(DX)(R11*4), X5
	MOVUPS 16(SI)(R11*4), X6
	MULPS  X6, X5
	ADDPS  X5, X1
	MOVUPS 32(DX)(R11*4), X6
	MOVUPS 32(SI)(R11*4), X7
	MULPS  X7, X6
	ADDPS  X6, X2
	MOVUPS 48(DX)(R11*4), X7
	MOVUPS 48(SI)(R11*4), X8
	MULPS  X8, X7
	ADDPS  X7, X3
	ADDQ   $16, R11
	JMP    mvb_wide16

mvb_combine:
	ADDPS X2, X0 // V0+V2
	ADDPS X3, X1 // V1+V3
	ADDPS X1, X0 // (V0+V2)+(V1+V3)
	JMP   mvb_quad

	// 8-wide superblock drain: Y0 = [V0|V1], Y1 = [V2|V3]. Each lane
	// sees one VMULPS rounding and one VADDPS rounding per superblock —
	// the same scalar operation sequence as the SSE quads above.
mvb_wide_avx:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
mvb_wide32:
	CMPQ    R11, R12
	JGE     mvb_combine_avx
	VMOVUPS (DX)(R11*4), Y4
	VMULPS  (SI)(R11*4), Y4, Y4
	VADDPS  Y4, Y0, Y0
	VMOVUPS 32(DX)(R11*4), Y5
	VMULPS  32(SI)(R11*4), Y5, Y5
	VADDPS  Y5, Y1, Y1
	ADDQ    $16, R11
	JMP     mvb_wide32

mvb_combine_avx:
	VADDPS       Y1, Y0, Y0   // [V0+V2 | V1+V3]
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0   // (V0+V2)+(V1+V3)
	VZEROUPPER
	JMP          mvb_quad

	// Four-row superblock drain: Z0..Z3 = [V0|V1|V2|V3] of rows
	// o..o+3, x loaded once per superblock for all four. Each lane
	// sees the AVX loop's VMULPS (weight first) and VADDPS per
	// superblock; the combine is its 256-bit fold after one more
	// 512-bit extract.
mvb_wide_zmm:
	LEAQ   (DX)(R9*4), AX  // row o+1
	LEAQ   (AX)(R9*4), R10 // row o+2
	LEAQ   (R10)(R9*4), R14 // row o+3
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
mvb_wide64:
	VMOVUPS (SI)(R11*4), Z4
	VMOVUPS (DX)(R11*4), Z5
	VMULPS  Z4, Z5, Z5
	VADDPS  Z5, Z0, Z0
	VMOVUPS (AX)(R11*4), Z6
	VMULPS  Z4, Z6, Z6
	VADDPS  Z6, Z1, Z1
	VMOVUPS (R10)(R11*4), Z7
	VMULPS  Z4, Z7, Z7
	VADDPS  Z7, Z2, Z2
	VMOVUPS (R14)(R11*4), Z8
	VMULPS  Z4, Z8, Z8
	VADDPS  Z8, Z3, Z3
	ADDQ    $16, R11
	CMPQ    R11, R12
	JLT     mvb_wide64 // cols ≥ 32: at least two superblocks

	VEXTRACTF64X4 $1, Z0, Y4
	VADDPS        Y4, Y0, Y0  // [V0+V2 | V1+V3]
	VEXTRACTF128  $1, Y0, X4
	VADDPS        X4, X0, X12 // (V0+V2)+(V1+V3), row o
	VEXTRACTF64X4 $1, Z1, Y5
	VADDPS        Y5, Y1, Y1
	VEXTRACTF128  $1, Y1, X5
	VADDPS        X5, X1, X13 // row o+1
	VEXTRACTF64X4 $1, Z2, Y6
	VADDPS        Y6, Y2, Y2
	VEXTRACTF128  $1, Y2, X6
	VADDPS        X6, X2, X14 // row o+2
	VEXTRACTF64X4 $1, Z3, Y7
	VADDPS        Y7, Y3, Y3
	VEXTRACTF128  $1, Y3, X7
	VADDPS        X7, X3, X15 // row o+3
	VZEROUPPER
	MOVQ          $4, CX

	// Next drained row: its quad into X0, the rest shift down.
mvb_pending:
	MOVAPS X12, X0
	MOVAPS X13, X12
	MOVAPS X14, X13
	MOVAPS X15, X14
	DECQ   CX
	MOVQ   R12, R11

mvb_quad:
	CMPQ   R11, R13
	JGE    mvb_fold
	MOVUPS (DX)(R11*4), X4
	MOVUPS (SI)(R11*4), X5
	MULPS  X5, X4
	ADDPS  X4, X0
	ADDQ   $4, R11
	JMP    mvb_quad

mvb_fold:
	MOVAPS  X0, X1
	MOVHLPS X0, X1       // X1 low = [l2, l3]
	ADDPS   X0, X1       // X1 = [l0+l2, l1+l3, ...]
	MOVAPS  X1, X2
	SHUFPS  $0x01, X1, X2 // X2 lane0 = l1+l3
	ADDSS   X2, X1       // (l0+l2)+(l1+l3)
	ADDSS   (BX), X1     // + b[o]

mvb_rem:
	CMPQ  R11, R9
	JGE   mvb_store
	MOVSS (DX)(R11*4), X4
	MULSS (SI)(R11*4), X4
	ADDSS X4, X1
	INCQ  R11
	JMP   mvb_rem

mvb_store:
	MOVSS X1, (DI)
	ADDQ  $4, DI
	ADDQ  $4, BX
	LEAQ  (DX)(R9*4), DX // next weight row
	DECQ  R8
	JNZ   mvb_row

mvb_done:
	RET

// func cpuHasAVX() bool
//
// CPUID leaf 1: ECX bit 28 = AVX, bit 27 = OSXSAVE; then XGETBV must
// show the OS preserving XMM+YMM state (XCR0 bits 1 and 2).
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   avx_no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   avx_no
	MOVB  $1, ret+0(FP)
	RET

avx_no:
	MOVB  $0, ret+0(FP)
	RET

// func cpuHasAVX512() bool
//
// AVX-512F as the ZMM loops use it: CPUID leaf 1 shows AVX and
// OSXSAVE, XGETBV shows the OS preserving XMM, YMM, the opmask
// registers and both ZMM halves (XCR0 bits 1, 2, 5, 6, 7), and CPUID
// leaf 7 (when the CPU has it) sets EBX bit 16. Every instruction of
// the ZMM loops — VMULPx, VADDPx, VMOVUPx, VBROADCASTSD, VPXORD/Q,
// VEXTRACTF64X4 and VCMPPD into an opmask — is AVX-512F.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   avx512_no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   avx512_no
	XORL  CX, CX
	XGETBV
	ANDL  $0xe6, AX
	CMPL  AX, $0xe6
	JNE   avx512_no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x10000, BX
	JZ    avx512_no
	MOVB  $1, ret+0(FP)
	RET

avx512_no:
	MOVB  $0, ret+0(FP)
	RET
