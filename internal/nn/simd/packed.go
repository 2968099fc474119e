package simd

import (
	"math"
	"unsafe"
)

// Across-output kernels. The kernels in kernels_amd64.s vectorise
// across the columns of one output row, which forces a SIMD summation
// order of their own (the f32 order above). The Packed kernels
// vectorise across outputs instead: lane l of a vector register
// accumulates output row l of a unit, and every lane runs, operation
// for operation, the scalar sequence the portable kernel runs for its
// row. They therefore reproduce both orders this repo has frozen, bit
// for bit, at any vector width:
//
//	PackedNarrowF64, PackedNarrow2F64  nn's f64 narrow order (cols < 32)
//	PackedWideF64                      nn's f64 wide dense order
//	PackedSparseF64                    nn's f64 sparse order
//	PackedNarrowF32, PackedNarrow2F32  MatVecBias{,2}F32Ref's narrow order
//
// To make each column of a unit one contiguous vector load, the
// weights are re-laid once by Pack. The bias vector needs no packing:
// a unit's biases are already contiguous.
//
// The kernels require AVX (HasAVX) and whole units: rows must be a
// multiple of Unit64 or Unit32. Callers run the leftover rows, which
// Pack leaves row-major, through the portable kernels, which give the
// same per-row values by lane uniformity.

// Row units of the packed layout: sixteen f64 outputs (four 4-lane
// accumulators), eight f32 outputs (one 8-lane register per partial
// sum, four partial sums per output).
const (
	Unit64 = 16
	Unit32 = 8
)

// Pack copies the row-major rows×cols matrix src into dst (len
// rows·cols) at width S, rounding to nearest at float32. The first
// rows−rows%unit rows are interleaved unit by unit: weight (r, i) of
// unit u = r/unit lands at dst[u·unit·cols + i·unit + r%unit], so the
// unit's column i is dst[u·unit·cols+i·unit:][:unit]. The leftover
// rows follow row-major. unit 0 packs nothing: dst is a plain copy.
// It returns the number of packed rows.
func Pack[S float32 | float64](dst []S, src []float64, rows, cols, unit int) int {
	packed := PackedRows(rows, unit)
	for u := 0; u < packed; u += unit {
		blk := dst[u*cols : (u+unit)*cols]
		for l := 0; l < unit; l++ {
			row := src[(u+l)*cols : (u+l+1)*cols]
			for i, v := range row {
				blk[i*unit+l] = S(v)
			}
		}
	}
	for i, v := range src[packed*cols : rows*cols] {
		dst[packed*cols+i] = S(v)
	}
	return packed
}

// PackedRows is the number of rows Pack interleaves: every whole unit,
// none when unit is 0.
func PackedRows(rows, unit int) int {
	if unit == 0 {
		return 0
	}
	return rows - rows%unit
}

// PackEqual reports whether dst holds, bit for bit, what
// Pack(dst, src, rows, cols, unit) would write: −0 differs from +0,
// and NaNs match only with the same payload. It walks Pack's index
// map, so a packed copy is checked against its row-major source in
// place.
func PackEqual[S float32 | float64](dst []S, src []float64, rows, cols, unit int) bool {
	packed := PackedRows(rows, unit)
	for u := 0; u < packed; u += unit {
		blk := dst[u*cols : (u+unit)*cols]
		for l := 0; l < unit; l++ {
			row := src[(u+l)*cols : (u+l+1)*cols]
			for i, v := range row {
				if !sameBits(blk[i*unit+l], S(v)) {
					return false
				}
			}
		}
	}
	for i, v := range src[packed*cols : rows*cols] {
		if !sameBits(dst[packed*cols+i], S(v)) {
			return false
		}
	}
	return true
}

// sameBits compares two scalars' IEEE bit patterns.
func sameBits[S float32 | float64](a, b S) bool {
	if unsafe.Sizeof(a) == 8 {
		return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
	}
	return math.Float32bits(float32(a)) == math.Float32bits(float32(b))
}
