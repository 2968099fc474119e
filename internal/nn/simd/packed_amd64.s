// AVX across-output kernels (packed.go), PackedSparseF64 with an
// AVX-512 route as well. Each YMM (or ZMM) lane carries one output
// row, and the weights arrive in the packed layout, so one
// column of a unit is a single contiguous vector load per register.
// Every lane executes the exact scalar operation sequence of the
// portable kernel for its row — the same products, the same adds, the
// same operand order — so the results match bit for bit. VMULPx and
// VADDPx only: no FMA, whose skipped product rounding the scalar
// kernels never skip. The ReLU clamp runs in-register before the
// stores (single kernels when relu is set, pair kernels always):
// VCMPPx with predicate LE_OQ (0x12) against zero marks every lane
// holding v ≤ 0, −0 included, and VANDNPx clears exactly those lanes
// to +0. The ordered compare is false for NaN, so a poisoned sum keeps
// its payload, as in nn's Go clamp; MAXPx would instead return its
// second operand and flush it. Leaf functions, no stack frame,
// nothing escapes.

#include "textflag.h"

// RELU_PD(v, z, m) and RELU_PS clamp v in place: m marks the lanes
// with v ≤ z (LE_OQ; z holds zero), which the and-not clears to +0.
#define RELU_PD(v, z, m) VCMPPD $0x12, z, v, m; VANDNPD v, m, v
#define RELU_PS(v, z, m) VCMPPS $0x12, z, v, m; VANDNPS v, m, v

// RELU_ZPD is RELU_PD on a ZMM register: the compare sets opmask k
// on the lanes with v ≤ z, and the merge-masked xor clears exactly
// those lanes to +0.
#define RELU_ZPD(v, z, k) VCMPPD $0x12, z, v, k; VPXORQ v, v, k, v

// func PackedNarrowF64(dst, x, w, b []float64, rows, cols int, relu bool)
//
// Per output: bias, then (p0+p1) column pairs ascending, then a
// single trailing column. Y0..Y3 hold the unit's 16 outputs.
TEXT ·PackedNarrowF64(SB), NOSPLIT, $0-113
	MOVQ    dst_base+0(FP), DI
	MOVQ    x_base+24(FP), SI
	MOVQ    w_base+48(FP), DX
	MOVQ    b_base+72(FP), BX
	MOVQ    rows+96(FP), R8
	MOVQ    cols+104(FP), R9
	MOVBLZX relu+112(FP), R14
	MOVQ R9, R10
	ANDQ $-2, R10 // pair limit

	TESTQ R8, R8
	JLE   n64_done

n64_unit:
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	XORQ    R11, R11

n64_pair:
	CMPQ         R11, R10
	JGE          n64_rem
	VBROADCASTSD (SI)(R11*8), Y4
	VBROADCASTSD 8(SI)(R11*8), Y5
	VMULPD       (DX), Y4, Y6
	VMULPD       128(DX), Y5, Y7
	VADDPD       Y7, Y6, Y6
	VADDPD       Y6, Y0, Y0
	VMULPD       32(DX), Y4, Y8
	VMULPD       160(DX), Y5, Y9
	VADDPD       Y9, Y8, Y8
	VADDPD       Y8, Y1, Y1
	VMULPD       64(DX), Y4, Y10
	VMULPD       192(DX), Y5, Y11
	VADDPD       Y11, Y10, Y10
	VADDPD       Y10, Y2, Y2
	VMULPD       96(DX), Y4, Y12
	VMULPD       224(DX), Y5, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y3, Y3
	ADDQ         $256, DX
	ADDQ         $2, R11
	JMP          n64_pair

n64_rem:
	CMPQ         R11, R9
	JGE          n64_store
	VBROADCASTSD (SI)(R11*8), Y4
	VMULPD       (DX), Y4, Y6
	VADDPD       Y6, Y0, Y0
	VMULPD       32(DX), Y4, Y8
	VADDPD       Y8, Y1, Y1
	VMULPD       64(DX), Y4, Y10
	VADDPD       Y10, Y2, Y2
	VMULPD       96(DX), Y4, Y12
	VADDPD       Y12, Y3, Y3
	ADDQ         $128, DX

n64_store:
	TESTL    R14, R14
	JEQ      n64_put
	VXORPD   Y15, Y15, Y15
	RELU_PD(Y0, Y15, Y4)
	RELU_PD(Y1, Y15, Y5)
	RELU_PD(Y2, Y15, Y6)
	RELU_PD(Y3, Y15, Y7)

n64_put:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $16, R8
	JG      n64_unit

n64_done:
	VZEROUPPER
	RET

// func PackedNarrow2F64(da, db, xa, xb, w, b []float64, rows, cols int)
//
// Two windows against one packed matrix, each in PackedNarrowF64's
// order: Y0..Y3 accumulate window a, Y4..Y7 window b. Both rows are
// always ReLU-clamped: the pair only ever computes conv rows.
TEXT ·PackedNarrow2F64(SB), NOSPLIT, $0-160
	MOVQ da_base+0(FP), DI
	MOVQ db_base+24(FP), R12
	MOVQ xa_base+48(FP), SI
	MOVQ xb_base+72(FP), R13
	MOVQ w_base+96(FP), DX
	MOVQ b_base+120(FP), BX
	MOVQ rows+144(FP), R8
	MOVQ cols+152(FP), R9
	MOVQ R9, R10
	ANDQ $-2, R10 // pair limit

	TESTQ R8, R8
	JLE   n264_done

n264_unit:
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	VMOVUPD 64(BX), Y6
	VMOVUPD 96(BX), Y7
	XORQ    R11, R11

n264_pair:
	CMPQ         R11, R10
	JGE          n264_rem
	VBROADCASTSD (SI)(R11*8), Y8
	VBROADCASTSD 8(SI)(R11*8), Y9
	VBROADCASTSD (R13)(R11*8), Y10
	VBROADCASTSD 8(R13)(R11*8), Y11

	VMULPD (DX), Y8, Y12
	VMULPD 128(DX), Y9, Y13
	VADDPD Y13, Y12, Y12
	VADDPD Y12, Y0, Y0
	VMULPD (DX), Y10, Y14
	VMULPD 128(DX), Y11, Y15
	VADDPD Y15, Y14, Y14
	VADDPD Y14, Y4, Y4

	VMULPD 32(DX), Y8, Y12
	VMULPD 160(DX), Y9, Y13
	VADDPD Y13, Y12, Y12
	VADDPD Y12, Y1, Y1
	VMULPD 32(DX), Y10, Y14
	VMULPD 160(DX), Y11, Y15
	VADDPD Y15, Y14, Y14
	VADDPD Y14, Y5, Y5

	VMULPD 64(DX), Y8, Y12
	VMULPD 192(DX), Y9, Y13
	VADDPD Y13, Y12, Y12
	VADDPD Y12, Y2, Y2
	VMULPD 64(DX), Y10, Y14
	VMULPD 192(DX), Y11, Y15
	VADDPD Y15, Y14, Y14
	VADDPD Y14, Y6, Y6

	VMULPD 96(DX), Y8, Y12
	VMULPD 224(DX), Y9, Y13
	VADDPD Y13, Y12, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 96(DX), Y10, Y14
	VMULPD 224(DX), Y11, Y15
	VADDPD Y15, Y14, Y14
	VADDPD Y14, Y7, Y7

	ADDQ $256, DX
	ADDQ $2, R11
	JMP  n264_pair

n264_rem:
	CMPQ         R11, R9
	JGE          n264_store
	VBROADCASTSD (SI)(R11*8), Y8
	VBROADCASTSD (R13)(R11*8), Y10
	VMULPD       (DX), Y8, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       (DX), Y10, Y14
	VADDPD       Y14, Y4, Y4
	VMULPD       32(DX), Y8, Y12
	VADDPD       Y12, Y1, Y1
	VMULPD       32(DX), Y10, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       64(DX), Y8, Y12
	VADDPD       Y12, Y2, Y2
	VMULPD       64(DX), Y10, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       96(DX), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       96(DX), Y10, Y14
	VADDPD       Y14, Y7, Y7
	ADDQ         $128, DX

n264_store:
	VXORPD  Y15, Y15, Y15
	RELU_PD(Y0, Y15, Y8)
	RELU_PD(Y1, Y15, Y9)
	RELU_PD(Y2, Y15, Y10)
	RELU_PD(Y3, Y15, Y11)
	RELU_PD(Y4, Y15, Y12)
	RELU_PD(Y5, Y15, Y13)
	RELU_PD(Y6, Y15, Y14)
	RELU_PD(Y7, Y15, Y8)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, (R12)
	VMOVUPD Y5, 32(R12)
	VMOVUPD Y6, 64(R12)
	VMOVUPD Y7, 96(R12)
	ADDQ    $128, DI
	ADDQ    $128, R12
	ADDQ    $128, BX
	SUBQ    $16, R8
	JG      n264_unit

n264_done:
	VZEROUPPER
	RET

// func PackedWideF64(dst, x, w, b []float64, rows, cols int, relu bool)
//
// Per output: bias, then ((p0+p1)+(p2+p3)) four-column groups
// ascending, then the trailing columns singly.
TEXT ·PackedWideF64(SB), NOSPLIT, $0-113
	MOVQ    dst_base+0(FP), DI
	MOVQ    x_base+24(FP), SI
	MOVQ    w_base+48(FP), DX
	MOVQ    b_base+72(FP), BX
	MOVQ    rows+96(FP), R8
	MOVQ    cols+104(FP), R9
	MOVBLZX relu+112(FP), R14
	MOVQ R9, R10
	ANDQ $-4, R10 // group limit

	TESTQ R8, R8
	JLE   w64_done

w64_unit:
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	XORQ    R11, R11

w64_group:
	CMPQ         R11, R10
	JGE          w64_rem
	VBROADCASTSD (SI)(R11*8), Y4
	VBROADCASTSD 8(SI)(R11*8), Y5
	VBROADCASTSD 16(SI)(R11*8), Y6
	VBROADCASTSD 24(SI)(R11*8), Y7

	VMULPD (DX), Y4, Y8
	VMULPD 128(DX), Y5, Y9
	VADDPD Y9, Y8, Y8
	VMULPD 256(DX), Y6, Y10
	VMULPD 384(DX), Y7, Y11
	VADDPD Y11, Y10, Y10
	VADDPD Y10, Y8, Y8
	VADDPD Y8, Y0, Y0

	VMULPD 32(DX), Y4, Y12
	VMULPD 160(DX), Y5, Y13
	VADDPD Y13, Y12, Y12
	VMULPD 288(DX), Y6, Y14
	VMULPD 416(DX), Y7, Y15
	VADDPD Y15, Y14, Y14
	VADDPD Y14, Y12, Y12
	VADDPD Y12, Y1, Y1

	VMULPD 64(DX), Y4, Y8
	VMULPD 192(DX), Y5, Y9
	VADDPD Y9, Y8, Y8
	VMULPD 320(DX), Y6, Y10
	VMULPD 448(DX), Y7, Y11
	VADDPD Y11, Y10, Y10
	VADDPD Y10, Y8, Y8
	VADDPD Y8, Y2, Y2

	VMULPD 96(DX), Y4, Y12
	VMULPD 224(DX), Y5, Y13
	VADDPD Y13, Y12, Y12
	VMULPD 352(DX), Y6, Y14
	VMULPD 480(DX), Y7, Y15
	VADDPD Y15, Y14, Y14
	VADDPD Y14, Y12, Y12
	VADDPD Y12, Y3, Y3

	ADDQ $512, DX
	ADDQ $4, R11
	JMP  w64_group

w64_rem:
	CMPQ         R11, R9
	JGE          w64_store
	VBROADCASTSD (SI)(R11*8), Y4
	VMULPD       (DX), Y4, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       32(DX), Y4, Y9
	VADDPD       Y9, Y1, Y1
	VMULPD       64(DX), Y4, Y10
	VADDPD       Y10, Y2, Y2
	VMULPD       96(DX), Y4, Y11
	VADDPD       Y11, Y3, Y3
	ADDQ         $128, DX
	INCQ         R11
	JMP          w64_rem

w64_store:
	TESTL   R14, R14
	JEQ     w64_put
	VXORPD  Y15, Y15, Y15
	RELU_PD(Y0, Y15, Y4)
	RELU_PD(Y1, Y15, Y5)
	RELU_PD(Y2, Y15, Y6)
	RELU_PD(Y3, Y15, Y7)

w64_put:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $16, R8
	JG      w64_unit

w64_done:
	VZEROUPPER
	RET

// func PackedSparseF64(dst, x, w, b []float64, nz []int32, rows, cols int, relu bool)
//
// Per output: bias, then one product per listed column, ascending.
// A listed column's 16 unit weights are one 128-byte run, so a
// skipped column costs no memory traffic at all. With AVX-512, each
// 64-row block (four units) runs in one pass: Z0..Z7 hold its 64
// outputs, and each listed column's x is broadcast once for all four
// units. Each lane sees the YMM loop's VMULPD (x first) and VADDPD
// per listed column; the units left after the last block take the
// YMM loop.
TEXT ·PackedSparseF64(SB), NOSPLIT, $0-137
	MOVQ    dst_base+0(FP), DI
	MOVQ    x_base+24(FP), SI
	MOVQ    w_base+48(FP), DX
	MOVQ    b_base+72(FP), BX
	MOVQ    nz_base+96(FP), R10
	MOVQ    nz_len+104(FP), R12
	MOVQ    rows+120(FP), R8
	MOVQ    cols+128(FP), R13
	MOVBLZX relu+136(FP), R14
	SHLQ    $7, R13 // bytes per packed unit: cols × 16 × 8

	TESTQ R8, R8
	JLE   s64_done
	CMPB  ·useAVX512(SB), $0
	JEQ   s64_unit
	LEAQ  (R13)(R13*2), CX // three units' bytes

s64_block:
	CMPQ    R8, $64
	JLT     s64_tail
	VMOVUPD (BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	VMOVUPD 256(BX), Z4
	VMOVUPD 320(BX), Z5
	VMOVUPD 384(BX), Z6
	VMOVUPD 448(BX), Z7
	XORQ    R11, R11

s64_bcol:
	CMPQ         R11, R12
	JGE          s64_bstore
	MOVLQSX      (R10)(R11*4), AX
	VBROADCASTSD (SI)(AX*8), Z8
	SHLQ         $7, AX
	ADDQ         DX, AX // column's run in unit 0
	VMULPD       (AX), Z8, Z9
	VADDPD       Z9, Z0, Z0
	VMULPD       64(AX), Z8, Z10
	VADDPD       Z10, Z1, Z1
	VMULPD       (AX)(R13*1), Z8, Z11
	VADDPD       Z11, Z2, Z2
	VMULPD       64(AX)(R13*1), Z8, Z12
	VADDPD       Z12, Z3, Z3
	VMULPD       (AX)(R13*2), Z8, Z9
	VADDPD       Z9, Z4, Z4
	VMULPD       64(AX)(R13*2), Z8, Z10
	VADDPD       Z10, Z5, Z5
	VMULPD       (AX)(CX*1), Z8, Z11
	VADDPD       Z11, Z6, Z6
	VMULPD       64(AX)(CX*1), Z8, Z12
	VADDPD       Z12, Z7, Z7
	INCQ         R11
	JMP          s64_bcol

s64_bstore:
	TESTL   R14, R14
	JEQ     s64_bput
	VPXORQ  Z15, Z15, Z15
	RELU_ZPD(Z0, Z15, K1)
	RELU_ZPD(Z1, Z15, K2)
	RELU_ZPD(Z2, Z15, K3)
	RELU_ZPD(Z3, Z15, K4)
	RELU_ZPD(Z4, Z15, K5)
	RELU_ZPD(Z5, Z15, K6)
	RELU_ZPD(Z6, Z15, K7)
	RELU_ZPD(Z7, Z15, K1)

s64_bput:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	ADDQ    $512, DI
	ADDQ    $512, BX
	LEAQ    (DX)(R13*4), DX
	SUBQ    $64, R8
	JMP     s64_block

s64_tail:
	TESTQ R8, R8
	JLE   s64_done

s64_unit:
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	XORQ    R11, R11

s64_col:
	CMPQ         R11, R12
	JGE          s64_store
	MOVLQSX      (R10)(R11*4), AX
	VBROADCASTSD (SI)(AX*8), Y4
	SHLQ         $7, AX
	VMULPD       (DX)(AX*1), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(DX)(AX*1), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(DX)(AX*1), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(DX)(AX*1), Y4, Y8
	VADDPD       Y8, Y3, Y3
	INCQ         R11
	JMP          s64_col

s64_store:
	TESTL   R14, R14
	JEQ     s64_put
	VXORPD  Y15, Y15, Y15
	RELU_PD(Y0, Y15, Y4)
	RELU_PD(Y1, Y15, Y5)
	RELU_PD(Y2, Y15, Y6)
	RELU_PD(Y3, Y15, Y7)

s64_put:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	ADDQ    R13, DX
	SUBQ    $16, R8
	JG      s64_unit

s64_done:
	VZEROUPPER
	RET

// func PackedNarrowF32(dst, x, w, b []float32, rows, cols int, relu bool)
//
// MatVecBiasF32Ref's narrow order per output: four partial sums
// q0..q3 (Y0..Y3, one per column lane of a 4-column block), combined
// as (q0+q2)+(q1+q3), then + bias, then the trailing columns singly.
TEXT ·PackedNarrowF32(SB), NOSPLIT, $0-113
	MOVQ    dst_base+0(FP), DI
	MOVQ    x_base+24(FP), SI
	MOVQ    w_base+48(FP), DX
	MOVQ    b_base+72(FP), BX
	MOVQ    rows+96(FP), R8
	MOVQ    cols+104(FP), R9
	MOVBLZX relu+112(FP), R14
	MOVQ R9, R10
	ANDQ $-4, R10 // block limit

	TESTQ R8, R8
	JLE   n32_done

n32_unit:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   R11, R11

n32_block:
	CMPQ         R11, R10
	JGE          n32_fold
	VBROADCASTSS (SI)(R11*4), Y4
	VMULPS       (DX), Y4, Y4
	VADDPS       Y4, Y0, Y0
	VBROADCASTSS 4(SI)(R11*4), Y5
	VMULPS       32(DX), Y5, Y5
	VADDPS       Y5, Y1, Y1
	VBROADCASTSS 8(SI)(R11*4), Y6
	VMULPS       64(DX), Y6, Y6
	VADDPS       Y6, Y2, Y2
	VBROADCASTSS 12(SI)(R11*4), Y7
	VMULPS       96(DX), Y7, Y7
	VADDPS       Y7, Y3, Y3
	ADDQ         $128, DX
	ADDQ         $4, R11
	JMP          n32_block

n32_fold:
	VADDPS Y2, Y0, Y0  // q0+q2
	VADDPS Y3, Y1, Y1  // q1+q3
	VADDPS Y1, Y0, Y0  // (q0+q2)+(q1+q3)
	VADDPS (BX), Y0, Y0 // + bias

n32_rem:
	CMPQ         R11, R9
	JGE          n32_store
	VBROADCASTSS (SI)(R11*4), Y4
	VMULPS       (DX), Y4, Y4
	VADDPS       Y4, Y0, Y0
	ADDQ         $32, DX
	INCQ         R11
	JMP          n32_rem

n32_store:
	TESTL   R14, R14
	JEQ     n32_put
	VXORPS  Y15, Y15, Y15
	RELU_PS(Y0, Y15, Y4)

n32_put:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $8, R8
	JG      n32_unit

n32_done:
	VZEROUPPER
	RET

// func PackedNarrow2F32(da, db, xa, xb, w, b []float32, rows, cols int)
//
// Two windows in PackedNarrowF32's order: Y0..Y3 are window a's
// partial sums, Y4..Y7 window b's; each weight vector loads once.
// Both rows are always ReLU-clamped, as in PackedNarrow2F64.
TEXT ·PackedNarrow2F32(SB), NOSPLIT, $0-160
	MOVQ da_base+0(FP), DI
	MOVQ db_base+24(FP), R12
	MOVQ xa_base+48(FP), SI
	MOVQ xb_base+72(FP), R13
	MOVQ w_base+96(FP), DX
	MOVQ b_base+120(FP), BX
	MOVQ rows+144(FP), R8
	MOVQ cols+152(FP), R9
	MOVQ R9, R10
	ANDQ $-4, R10 // block limit

	TESTQ R8, R8
	JLE   n232_done

n232_unit:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   R11, R11

n232_block:
	CMPQ         R11, R10
	JGE          n232_fold
	VMOVUPS      (DX), Y8
	VBROADCASTSS (SI)(R11*4), Y12
	VMULPS       Y8, Y12, Y12
	VADDPS       Y12, Y0, Y0
	VBROADCASTSS (R13)(R11*4), Y13
	VMULPS       Y8, Y13, Y13
	VADDPS       Y13, Y4, Y4
	VMOVUPS      32(DX), Y9
	VBROADCASTSS 4(SI)(R11*4), Y14
	VMULPS       Y9, Y14, Y14
	VADDPS       Y14, Y1, Y1
	VBROADCASTSS 4(R13)(R11*4), Y15
	VMULPS       Y9, Y15, Y15
	VADDPS       Y15, Y5, Y5
	VMOVUPS      64(DX), Y10
	VBROADCASTSS 8(SI)(R11*4), Y12
	VMULPS       Y10, Y12, Y12
	VADDPS       Y12, Y2, Y2
	VBROADCASTSS 8(R13)(R11*4), Y13
	VMULPS       Y10, Y13, Y13
	VADDPS       Y13, Y6, Y6
	VMOVUPS      96(DX), Y11
	VBROADCASTSS 12(SI)(R11*4), Y14
	VMULPS       Y11, Y14, Y14
	VADDPS       Y14, Y3, Y3
	VBROADCASTSS 12(R13)(R11*4), Y15
	VMULPS       Y11, Y15, Y15
	VADDPS       Y15, Y7, Y7
	ADDQ         $128, DX
	ADDQ         $4, R11
	JMP          n232_block

n232_fold:
	VADDPS  Y2, Y0, Y0
	VADDPS  Y3, Y1, Y1
	VADDPS  Y1, Y0, Y0
	VADDPS  Y6, Y4, Y4
	VADDPS  Y7, Y5, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS (BX), Y8
	VADDPS  Y8, Y0, Y0
	VADDPS  Y8, Y4, Y4

n232_rem:
	CMPQ         R11, R9
	JGE          n232_store
	VMOVUPS      (DX), Y8
	VBROADCASTSS (SI)(R11*4), Y12
	VMULPS       Y8, Y12, Y12
	VADDPS       Y12, Y0, Y0
	VBROADCASTSS (R13)(R11*4), Y13
	VMULPS       Y8, Y13, Y13
	VADDPS       Y13, Y4, Y4
	ADDQ         $32, DX
	INCQ         R11
	JMP          n232_rem

n232_store:
	VXORPS  Y15, Y15, Y15
	RELU_PS(Y0, Y15, Y8)
	RELU_PS(Y4, Y15, Y9)
	VMOVUPS Y0, (DI)
	VMOVUPS Y4, (R12)
	ADDQ    $32, DI
	ADDQ    $32, R12
	ADDQ    $32, BX
	SUBQ    $8, R8
	JG      n232_unit

n232_done:
	VZEROUPPER
	RET
