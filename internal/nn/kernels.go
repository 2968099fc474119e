package nn

import (
	"repro/internal/nn/simd"
	"repro/internal/tensor"
)

// Register-blocked micro-kernels shared by the batch forward path and
// the incremental streaming path (DESIGN.md §12). Go's scalar code on
// the inference hot loops is latency-bound, not throughput-bound: a
// single running float64 sum chains every multiply-add behind a
// ~4-cycle add, so the classic one-accumulator dot product runs far
// below the core's issue width. Two forms of blocking fix that:
// four outputs advance together over one streamed read of x (four
// independent dependency chains), and within each output the products
// are summed pairwise in small groups, which shortens the per-chain
// add recurrence and amortises loop overhead.
//
// Bit-identity contract: for a given cols, every output is computed
// as bias + the same fixed grouping of products in ascending input
// order — independent of which lane of the 4-wide block produced it,
// of rows, and of the caller. The batch and streaming paths therefore
// produce bit-identical results (asserted by TestMatVecBiasLaneUniform
// and the stream equivalence tests), because a conv row computed alone
// at a stride goes through exactly the arithmetic a full batch pass
// applies to it.
//
// The float32 instantiation never reaches the scalar bodies below:
// every entry kernel dispatches it to the SIMD path, whose
// (different, SIMD-lane) summation order is defined and documented in
// internal/nn/simd. The same contract holds there — each output a
// fixed function of (weight row, x, bias), order a pure function of
// cols — so batch/stream bit-identity is preserved per width.

// matVecBias computes dst[o] = b[o] + Σ_i w[o·cols+i]·x[i] for
// o < rows. It is the whole inner loop of Dense.Forward (rows=Out,
// cols=In) and of one Conv1D output row (rows=Filters,
// cols=Kernel·InCh).
//
// Summation order per output, fixed by cols alone: for wide inputs
// (cols ≥ 32) products are grouped ((p0+p1)+(p2+p3)) four at a time,
// for narrow inputs (p0+p1) two at a time, remainders added singly in
// ascending order.
//
//fallvet:hotpath
func matVecBias[S tensor.Scalar](dst, x, w, b []S, rows, cols int) {
	if !tensor.Is64[S]() {
		simd.MatVecBiasF32(f32s(dst), f32s(x), f32s(w), f32s(b), rows, cols)
		return
	}
	if cols >= 32 {
		matVecBiasWide(dst, x, w, b, rows, cols)
		return
	}
	o := 0
	for ; o+4 <= rows; o += 4 {
		r0 := w[(o+0)*cols : (o+1)*cols]
		r1 := w[(o+1)*cols : (o+2)*cols]
		r2 := w[(o+2)*cols : (o+3)*cols]
		r3 := w[(o+3)*cols : (o+4)*cols]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		i := 0
		for ; i+2 <= cols; i += 2 {
			v0, v1 := x[i], x[i+1]
			s0 += r0[i]*v0 + r0[i+1]*v1
			s1 += r1[i]*v0 + r1[i+1]*v1
			s2 += r2[i]*v0 + r2[i+1]*v1
			s3 += r3[i]*v0 + r3[i+1]*v1
		}
		for ; i < cols; i++ {
			v := x[i]
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < rows; o++ {
		row := w[o*cols : (o+1)*cols]
		s := b[o]
		i := 0
		for ; i+2 <= cols; i += 2 {
			s += row[i]*x[i] + row[i+1]*x[i+1]
		}
		for ; i < cols; i++ {
			s += row[i] * x[i]
		}
		dst[o] = s
	}
}

// matVecBias2 computes two matVecBias calls that share the weight
// matrix — two consecutive Conv1D output rows, whose input windows xa
// and xb overlap but sit at different offsets. Each weight element is
// loaded once and applied to both windows, which matters because the
// narrow conv shape is front-end-bound: per column pair the plain
// kernel issues 10 loads for 8 FP ops, this one 12 loads for 16.
//
// Bit-identity: each output is accumulated in exactly matVecBias's
// narrow order — bias, then (p0+p1) pairs in ascending input order,
// remainder singly — so da/db match two separate matVecBias calls
// bit-for-bit (asserted by TestMatVecBias2MatchesSingle). Callers must
// only use it when cols < 32, where matVecBias takes the narrow path.
//
//fallvet:hotpath
func matVecBias2[S tensor.Scalar](da, db, xa, xb, w, b []S, rows, cols int) {
	if !tensor.Is64[S]() {
		// Two single calls are the f32 pair, bit for bit: the pair
		// order is the narrow single order per window.
		simd.MatVecBiasF32(f32s(da), f32s(xa), f32s(w), f32s(b), rows, cols)
		simd.MatVecBiasF32(f32s(db), f32s(xb), f32s(w), f32s(b), rows, cols)
		return
	}
	o := 0
	for ; o+4 <= rows; o += 4 {
		r0 := w[(o+0)*cols : (o+1)*cols]
		r1 := w[(o+1)*cols : (o+2)*cols]
		r2 := w[(o+2)*cols : (o+3)*cols]
		r3 := w[(o+3)*cols : (o+4)*cols]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		t0, t1, t2, t3 := s0, s1, s2, s3
		i := 0
		for ; i+2 <= cols; i += 2 {
			a0, a1 := xa[i], xa[i+1]
			c0, c1 := xb[i], xb[i+1]
			w00, w01 := r0[i], r0[i+1]
			s0 += w00*a0 + w01*a1
			t0 += w00*c0 + w01*c1
			w10, w11 := r1[i], r1[i+1]
			s1 += w10*a0 + w11*a1
			t1 += w10*c0 + w11*c1
			w20, w21 := r2[i], r2[i+1]
			s2 += w20*a0 + w21*a1
			t2 += w20*c0 + w21*c1
			w30, w31 := r3[i], r3[i+1]
			s3 += w30*a0 + w31*a1
			t3 += w30*c0 + w31*c1
		}
		for ; i < cols; i++ {
			a, c := xa[i], xb[i]
			w0, w1, w2, w3 := r0[i], r1[i], r2[i], r3[i]
			s0 += w0 * a
			t0 += w0 * c
			s1 += w1 * a
			t1 += w1 * c
			s2 += w2 * a
			t2 += w2 * c
			s3 += w3 * a
			t3 += w3 * c
		}
		da[o], da[o+1], da[o+2], da[o+3] = s0, s1, s2, s3
		db[o], db[o+1], db[o+2], db[o+3] = t0, t1, t2, t3
	}
	for ; o < rows; o++ {
		row := w[o*cols : (o+1)*cols]
		s, t := b[o], b[o]
		i := 0
		for ; i+2 <= cols; i += 2 {
			w0, w1 := row[i], row[i+1]
			s += w0*xa[i] + w1*xa[i+1]
			t += w0*xb[i] + w1*xb[i+1]
		}
		for ; i < cols; i++ {
			s += row[i] * xa[i]
			t += row[i] * xb[i]
		}
		da[o] = s
		db[o] = t
	}
}

// maxSparseCols bounds the stack-allocated nonzero index scratch in
// matVecBiasWide; wider layers always take the dense path.
const maxSparseCols = 1152

// matVecBiasWide is the cols ≥ 32 body of matVecBias: the same 4-wide
// output blocking with a deeper 4-way input unroll, which is worth
// the extra remainder handling only once the inner loop dominates.
//
// Wide layers in this topology sit behind ReLU (+ max-pool), whose
// outputs are exactly +0.0 for every clipped activation — a quarter
// of the concat vector on typical windows. Terms with x[i] == 0
// contribute nothing, so the kernel first scans for nonzeros and,
// when at least 1/8 of the input is zero, accumulates only the
// surviving terms (matVecBiasSparse). Which path runs is a pure
// function of x, and both paths are lane-uniform, so every output is
// still a fixed function of (weight row, x, bias) — the bit-identity
// contract the streaming engine rests on. The one semantic edge: a
// non-finite weight multiplied by an exactly-zero activation no
// longer turns the sum into NaN; finite weights (every trained or
// initialised model here) are unaffected.
//
//fallvet:hotpath
func matVecBiasWide[S tensor.Scalar](dst, x, w, b []S, rows, cols int) {
	if cols <= maxSparseCols {
		var nz [maxSparseCols]int32
		if n := nonzeros(nz[:], x[:cols]); n <= cols-cols/8 {
			matVecBiasSparse(dst, x, w, b, rows, cols, nz[:n])
			return
		}
	}
	o := 0
	for ; o+4 <= rows; o += 4 {
		r0 := w[(o+0)*cols : (o+1)*cols]
		r1 := w[(o+1)*cols : (o+2)*cols]
		r2 := w[(o+2)*cols : (o+3)*cols]
		r3 := w[(o+3)*cols : (o+4)*cols]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		i := 0
		for ; i+4 <= cols; i += 4 {
			v0, v1, v2, v3 := x[i], x[i+1], x[i+2], x[i+3]
			s0 += (r0[i]*v0 + r0[i+1]*v1) + (r0[i+2]*v2 + r0[i+3]*v3)
			s1 += (r1[i]*v0 + r1[i+1]*v1) + (r1[i+2]*v2 + r1[i+3]*v3)
			s2 += (r2[i]*v0 + r2[i+1]*v1) + (r2[i+2]*v2 + r2[i+3]*v3)
			s3 += (r3[i]*v0 + r3[i+1]*v1) + (r3[i+2]*v2 + r3[i+3]*v3)
		}
		for ; i < cols; i++ {
			v := x[i]
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < rows; o++ {
		row := w[o*cols : (o+1)*cols]
		s := b[o]
		i := 0
		for ; i+4 <= cols; i += 4 {
			s += (row[i]*x[i] + row[i+1]*x[i+1]) + (row[i+2]*x[i+2] + row[i+3]*x[i+3])
		}
		for ; i < cols; i++ {
			s += row[i] * x[i]
		}
		dst[o] = s
	}
}

// nonzeros writes the indices of x's nonzero entries, ascending, to
// nz (len(nz) ≥ len(x)) and returns their count. −0 counts as zero;
// NaN does not. Each index is stored unconditionally and only the
// count is data-dependent, which keeps an unpredictable branch off
// the scan.
//
//fallvet:hotpath
func nonzeros[S tensor.Scalar](nz []int32, x []S) int {
	n := 0
	for i, v := range x {
		nz[n] = int32(i)
		if v != 0 {
			n++
		}
	}
	return n
}

// matVecBiasSparse accumulates only the terms whose input is nonzero,
// in ascending index order, one addition at a time per output. Eight
// outputs run in flight so each accumulator's add issues every eight
// cycles — twice its latency — and the indexed loads stay off the
// critical path. Per output the order is bias + singles over nz,
// independent of rows or lane, preserving lane uniformity.
//
//fallvet:hotpath
func matVecBiasSparse[S tensor.Scalar](dst, x, w, b []S, rows, cols int, nz []int32) {
	o := 0
	for ; o+8 <= rows; o += 8 {
		r0 := w[(o+0)*cols : (o+1)*cols]
		r1 := w[(o+1)*cols : (o+2)*cols]
		r2 := w[(o+2)*cols : (o+3)*cols]
		r3 := w[(o+3)*cols : (o+4)*cols]
		r4 := w[(o+4)*cols : (o+5)*cols]
		r5 := w[(o+5)*cols : (o+6)*cols]
		r6 := w[(o+6)*cols : (o+7)*cols]
		r7 := w[(o+7)*cols : (o+8)*cols]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		s4, s5, s6, s7 := b[o+4], b[o+5], b[o+6], b[o+7]
		for _, ii := range nz {
			i := int(ii)
			v := x[i]
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
			s4 += r4[i] * v
			s5 += r5[i] * v
			s6 += r6[i] * v
			s7 += r7[i] * v
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
		dst[o+4], dst[o+5], dst[o+6], dst[o+7] = s4, s5, s6, s7
	}
	for ; o < rows; o++ {
		row := w[o*cols : (o+1)*cols]
		s := b[o]
		for _, ii := range nz {
			i := int(ii)
			s += row[i] * x[i]
		}
		dst[o] = s
	}
}
