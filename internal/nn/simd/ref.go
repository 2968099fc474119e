// Package simd holds the assembly matrix-vector kernels behind the nn
// package: the float32 across-column kernel with a portable reference
// that defines the exact f32 summation order (asm and reference must
// match bit-for-bit, TestMatVecBiasF32AsmMatchesRef), and the AVX
// across-output Packed kernels (packed.go), which reproduce the
// frozen float64 order and the f32 narrow order lane by lane and
// ReLU-clamp in register, and the running-max fold of the streamer's
// pooling (max.go). On !amd64 the references are the implementation,
// so f32 results are identical across architectures by construction.
//
// The kernels live in their own package deliberately. An assembly
// file inside package nn itself measurably perturbed the code layout
// of unrelated hot loops (the recurrent baseline layers lost ~20% on
// Benchmark_Table3_Inference_CNNBiGRU_400ms with the .s file present
// and untouched); fencing the assembly behind a package boundary
// restored them. The extra call is noise against a kernel invocation.
//
// The float64 summation order is frozen by the bit-identity contract
// (nn/kernels.go) and by every committed artifact and test fixture,
// so it cannot change. The float32 order is this repo's own to define
// — no prior artifact pins it — and it is defined here as the order a
// 4-lane SSE implementation produces.
//
// f32 summation order, per output row, fixed by cols alone:
//
//	narrow (cols < 32): four lane accumulators q0..q3; each full
//	4-column block i adds q_l += w[i+l]·x[i+l]. Lanes combine as
//	(q0+q2)+(q1+q3), then + bias, then the <4 remainder columns are
//	added singly in ascending order.
//
//	wide (cols ≥ 32): four quad accumulators V0..V3 round-robin over
//	16-column superblocks (V_j takes columns [16t+4j, 16t+4j+4)).
//	They combine elementwise as (V0+V2)+(V1+V3) into one quad, the
//	leftover full 4-column blocks accumulate into that quad, and the
//	lane combine / bias / remainder proceed as in the narrow case.
//
// The 16-column round-robin was chosen so two 8-wide AVX accumulators
// ([V0|V1] and [V2|V3]) perform the exact per-lane multiply/add
// sequence of the four SSE quads, and so does one 16-wide AVX-512
// accumulator ([V0|V1|V2|V3]), whose combine is one 256-bit fold
// ahead of the AVX loop's. The AVX-512 loop runs four rows per pass
// with x loaded once for all four; rows past the last block of four
// take the AVX (or SSE) loop. All three loops are bit-identical, so
// the CPU gates select speed, never values.
//
// PackedSparseF64 has an AVX-512 route too: four 16-row units per
// pass, eight ZMM accumulators, each listed column's x broadcast once.
// Its lanes run the YMM route's operation sequence, and units past
// the last 64-row block take the YMM route. The other Packed kernels
// are YMM only.
//
// The pair order (MatVecBias2F32Ref, implemented by PackedNarrow2F32)
// runs each window through exactly the narrow order, so lane
// uniformity and pair-matches-single hold at float32 just as they do
// at float64. The f32 wide path never routes to a sparse
// kernel: a dense 4-lane pass beats the scalar gather on every layer
// shape in this topology, and one fewer x-dependent branch keeps the
// order a function of cols alone.
//
// Every multiply in the reference is pinned with an explicit
// float32(·) conversion. The Go spec lets implementations fuse a
// multiply-add unless the product is explicitly rounded; the
// MULPS/ADDPS kernels never fuse, so the reference must not either.
package simd

// MatVecBiasF32Ref is the portable definition of the f32 single
// kernel's arithmetic: dst[o] = b[o] + Σ_i w[o·cols+i]·x[i], in the
// package-documented order. The amd64 assembly must match it
// bit-for-bit.
func MatVecBiasF32Ref(dst, x, w, b []float32, rows, cols int) {
	for o := 0; o < rows; o++ {
		row := w[o*cols : (o+1)*cols]
		var q [4]float32
		i := 0
		if cols >= 32 {
			var v [4][4]float32
			for ; i+16 <= cols; i += 16 {
				for j := 0; j < 4; j++ {
					for l := 0; l < 4; l++ {
						v[j][l] += float32(row[i+4*j+l] * x[i+4*j+l])
					}
				}
			}
			for l := 0; l < 4; l++ {
				q[l] = (v[0][l] + v[2][l]) + (v[1][l] + v[3][l])
			}
		}
		for ; i+4 <= cols; i += 4 {
			q[0] += float32(row[i] * x[i])
			q[1] += float32(row[i+1] * x[i+1])
			q[2] += float32(row[i+2] * x[i+2])
			q[3] += float32(row[i+3] * x[i+3])
		}
		s := (q[0] + q[2]) + (q[1] + q[3])
		s += b[o]
		for ; i < cols; i++ {
			s += float32(row[i] * x[i])
		}
		dst[o] = s
	}
}

// MatVecBias2F32Ref is the portable f32 pair kernel: both windows run
// through exactly the narrow single order, sharing one read of each
// weight. Like nn's matVecBias2 it is only valid for cols < 32. It is
// the oracle PackedNarrow2F32 is tested against.
func MatVecBias2F32Ref(da, db, xa, xb, w, b []float32, rows, cols int) {
	for o := 0; o < rows; o++ {
		row := w[o*cols : (o+1)*cols]
		var qa, qb [4]float32
		i := 0
		for ; i+4 <= cols; i += 4 {
			for l := 0; l < 4; l++ {
				wl := row[i+l]
				qa[l] += float32(wl * xa[i+l])
				qb[l] += float32(wl * xb[i+l])
			}
		}
		s := (qa[0] + qa[2]) + (qa[1] + qa[3])
		t := (qb[0] + qb[2]) + (qb[1] + qb[3])
		s += b[o]
		t += b[o]
		for ; i < cols; i++ {
			wl := row[i]
			s += float32(wl * xa[i])
			t += float32(wl * xb[i])
		}
		da[o] = s
		db[o] = t
	}
}
