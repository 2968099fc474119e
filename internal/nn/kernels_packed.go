package nn

import (
	"math"
	"runtime"
	"sync"
	"unsafe"
	"weak"

	"repro/internal/nn/simd"
	"repro/internal/tensor"
)

// Across-output dispatch (DESIGN.md §12.7). The streamer's weight
// matrices are packed once at construction into the layout the
// simd.Packed* kernels read, where each vector lane computes one
// output row in exactly the scalar order of the kernels in kernels.go
// (f64) or of simd.MatVecBiasF32Ref (f32). Rows past the last whole
// unit stay row-major and run through those same kernels, so every
// output is bit-identical whichever route computed it. The batch path
// (Dense/Conv1D.Forward) keeps the scalar kernels and is the oracle
// the streamer is tested against.

// useAVX gates the packed layout: without AVX the streamer packs
// nothing and every call takes the scalar kernels. The layout reads it
// at streamer construction only; maxInto reads it per call, which
// picks speed, never values.
var useAVX = simd.HasAVX()

// matOf is one matrix-vector step's parameters at width S: a
// rows×cols weight matrix whose first `packed` rows are in the
// simd.Pack layout (the rest row-major), and its bias. Both are
// copies taken at construction — the streamer never reads the
// network's live parameters — and both are read-only: w and b view
// one interned copy that every streamer built from bit-identical
// parameters shares (see sharedMat).
type matOf[S tensor.Scalar] struct {
	w, b               []S
	rows, cols, packed int
}

// newMat returns a layer's row-major float64 weights and bias at
// width S, packing whole units when the across-output kernels apply:
// AVX present, at least one unit of rows, and at f32 only narrow
// matrices — the f32 wide head keeps its across-column kernel
// (simd.MatVecBiasF32).
func newMat[S tensor.Scalar](w, b []float64, rows, cols int) matOf[S] {
	return sharedMat[S](w, b, rows, cols, packUnit[S](cols))
}

// packUnit is the simd.Pack unit newMat packs a cols-wide matrix in at
// width S, 0 for row-major.
func packUnit[S tensor.Scalar](cols int) int {
	switch {
	case !useAVX:
		return 0
	case tensor.Is64[S]():
		return simd.Unit64
	case cols < 32:
		return simd.Unit32
	}
	return 0
}

// matKey files an interned copy under its shape, layout and content.
// size (bytes per scalar) and unit keep the widths and the packed and
// row-major layouts apart; sum hashes the source float64 bits of the
// weights and bias. The hash only narrows the search: a copy is
// shared after a bit-for-bit comparison, never on the hash alone.
type matKey struct {
	size, rows, cols, unit int
	sum                    uint64
}

// matTable interns the streamers' weight copies. Each entry is a
// weak.Pointer[S] (S fixed by the key's size) to the first element of
// one copy's backing array, which holds the weights and then the
// bias. Any streamer reading the copy keeps that array alive; once
// none does, the collector clears the pointer and the copy's cleanup
// (dropDeadMats) deletes the entry, so the table never pins a model.
var matTable struct {
	sync.Mutex
	m map[matKey][]any
}

// sharedMat returns the interned copy of (w, b) at width S in the
// given pack unit, building and interning it on the first request.
// Sharing is safe because the streamer never writes its matrices
// after construction; a network updated in place hashes or compares
// differently and gets a copy of its own. The table is touched only
// at construction, never on the hot path.
func sharedMat[S tensor.Scalar](w, b []float64, rows, cols, unit int) matOf[S] {
	n := rows * cols
	m := matOf[S]{rows: rows, cols: cols}
	if rows == 0 {
		return m
	}
	size := int(unsafe.Sizeof(S(0)))
	k := matKey{size: size, rows: rows, cols: cols, unit: unit, sum: bitsHash(bitsHash(fnvOffset, w), b)}
	matTable.Lock()
	defer matTable.Unlock()
	for _, e := range matTable.m[k] {
		p := e.(weak.Pointer[S]).Value()
		if p == nil {
			continue
		}
		buf := unsafe.Slice(p, n+rows)
		if simd.PackEqual(buf[:n], w, rows, cols, unit) && simd.PackEqual(buf[n:], b, rows, 1, 0) {
			m.w, m.b = buf[:n:n], buf[n:]
			m.packed = simd.PackedRows(rows, unit)
			return m
		}
	}
	// At least 16 bytes: the runtime packs smaller pointer-free
	// objects into shared blocks, whose weak pointers and cleanups
	// wait for every neighbour in the block to die as well.
	buf := make([]S, n+rows, max(n+rows, 16/size))
	m.w, m.b = buf[:n:n], buf[n:]
	m.packed = simd.Pack(m.w, w, rows, cols, unit)
	simd.Pack(m.b, b, rows, 1, 0)
	if matTable.m == nil {
		matTable.m = make(map[matKey][]any)
	}
	matTable.m[k] = append(matTable.m[k], weak.Make(&buf[0]))
	runtime.AddCleanup(&buf[0], dropDeadMats[S], k)
	return m
}

// dropDeadMats removes k's entries whose copy has been collected, and
// k itself once none is left. It runs as the cleanup of each copy
// filed under k.
func dropDeadMats[S tensor.Scalar](k matKey) {
	matTable.Lock()
	defer matTable.Unlock()
	live := matTable.m[k][:0]
	for _, e := range matTable.m[k] {
		if e.(weak.Pointer[S]).Value() != nil {
			live = append(live, e)
		}
	}
	if len(live) == 0 {
		delete(matTable.m, k)
		return
	}
	matTable.m[k] = live
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// bitsHash folds the bit patterns of v into h, FNV-1a style one
// 64-bit word at a time. Four interleaved lanes break the multiply
// chain, since construction hashes every weight; each lane and the
// final fold are bijective in any one word, so matrices that differ in
// a single word never collide.
func bitsHash(h uint64, v []float64) uint64 {
	l := [4]uint64{h, h ^ 1, h ^ 2, h ^ 3}
	i := 0
	for ; i+4 <= len(v); i += 4 {
		l[0] = (l[0] ^ math.Float64bits(v[i])) * fnvPrime
		l[1] = (l[1] ^ math.Float64bits(v[i+1])) * fnvPrime
		l[2] = (l[2] ^ math.Float64bits(v[i+2])) * fnvPrime
		l[3] = (l[3] ^ math.Float64bits(v[i+3])) * fnvPrime
	}
	for ; i < len(v); i++ {
		l[0] = (l[0] ^ math.Float64bits(v[i])) * fnvPrime
	}
	return ((l[0]*fnvPrime^l[1])*fnvPrime^l[2])*fnvPrime ^ l[3]
}

// apply computes dst = W·x + b, clamped by ReLU's NaN-preserving rule
// when relu is set: the packed kernels clamp in register before their
// stores, the row-major leftover rows through matVecBias and then
// reluClamp.
//
//fallvet:hotpath
func (m *matOf[S]) apply(dst, x []S, relu bool) {
	w, b, rows, cols := m.w, m.b, m.rows, m.cols
	if p := m.packed; p > 0 {
		if tensor.Is64[S]() {
			packedF64(f64s(dst), f64s(x), f64s(w), f64s(b), p, cols, relu)
		} else {
			simd.PackedNarrowF32(f32s(dst), f32s(x), f32s(w), f32s(b), p, cols, relu)
		}
		if p == rows {
			return
		}
		dst, w, b, rows = dst[p:], w[p*cols:], b[p:], rows-p
	}
	matVecBias(dst, x, w, b, rows, cols)
	if relu {
		reluClamp(dst[:rows])
	}
}

// apply2ReLU computes two ReLU-clamped rows da = W·xa + b and
// db = W·xb + b with one read of the weights (narrow matrices only,
// as matVecBias2). The packed pair kernels always clamp; the
// row-major leftover rows clamp through reluClamp.
//
//fallvet:hotpath
func (m *matOf[S]) apply2ReLU(da, db, xa, xb []S) {
	w, b, rows, cols := m.w, m.b, m.rows, m.cols
	if p := m.packed; p > 0 {
		if tensor.Is64[S]() {
			simd.PackedNarrow2F64(f64s(da), f64s(db), f64s(xa), f64s(xb), f64s(w), f64s(b), p, cols)
		} else {
			simd.PackedNarrow2F32(f32s(da), f32s(db), f32s(xa), f32s(xb), f32s(w), f32s(b), p, cols)
		}
		if p == rows {
			return
		}
		da, db, w, b, rows = da[p:], db[p:], w[p*cols:], b[p:], rows-p
	}
	matVecBias2(da, db, xa, xb, w, b, rows, cols)
	reluClamp(da[:rows])
	reluClamp(db[:rows])
}

// packedF64 runs whole packed f64 units through the kernel of the
// order matVecBias would pick for (x, cols): narrow below 32 columns,
// otherwise sparse or wide dense by matVecBiasWide's zero-count rule.
//
//fallvet:hotpath
func packedF64(dst, x, w, b []float64, rows, cols int, relu bool) {
	if cols < 32 {
		simd.PackedNarrowF64(dst, x, w, b, rows, cols, relu)
		return
	}
	if cols <= maxSparseCols {
		var nz [maxSparseCols]int32
		if n := nonzeros(nz[:], x[:cols]); n <= cols-cols/8 {
			simd.PackedSparseF64(dst, x, w, b, nz[:n], rows, cols, relu)
			return
		}
	}
	simd.PackedWideF64(dst, x, w, b, rows, cols, relu)
}

// reluClamp applies ReLU's clamp in place: v ≤ 0 becomes 0, and NaN
// propagates because the comparison is false. It clamps the rows the
// packed kernels do not cover (the non-AVX route, the leftover rows
// below a pack unit, the f32 wide head);
// the packed kernels clamp in register with the same rule, by an
// ordered v ≤ 0 compare and an and-not (simd's packed_amd64.s), never
// by MAXPx, which would resolve NaN to its second operand and flush
// poisoned sums to zero.
//
//fallvet:hotpath
func reluClamp[S tensor.Scalar](d []S) {
	for i, v := range d {
		if v <= 0 {
			d[i] = 0
		}
	}
}

// maxInto folds src into the running max dst: dst[i] = src[i] where
// src[i] > dst[i] (simd.MaxRef's strict rule, MaxPool1D's scan: NaN on
// either side and the ±0 tie keep dst). With AVX it is one vector max
// per four f64 or eight f32 lanes instead of a data-dependent branch
// per element.
//
//fallvet:hotpath
func maxInto[S tensor.Scalar](dst, src []S) {
	switch {
	case !useAVX:
		simd.MaxRef(dst, src)
	case tensor.Is64[S]():
		simd.MaxF64(f64s(dst), f64s(src))
	default:
		simd.MaxF32(f32s(dst), f32s(src))
	}
}

// f32s reinterprets a scalar slice as []float32. Callers guard with
// !tensor.Is64[S], so S is float32 and this is the identity view; the
// float64 instantiation compiles but is unreachable. No allocation —
// unsafe.Slice builds a header over the existing backing array.
func f32s[S tensor.Scalar](s []S) []float32 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&s[0])), len(s))
}

// f64s is f32s's float64 twin, behind a tensor.Is64[S] guard.
func f64s[S tensor.Scalar](s []S) []float64 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&s[0])), len(s))
}
