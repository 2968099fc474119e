//go:build !amd64

package simd

// Portable fallback: the reference implementations are the
// implementation, so f32 results are identical across platforms.
// HasAVX is false, so callers never reach the Packed kernels; their
// stubs exist only to keep the package's API the same everywhere.

// MatVecBiasF32 computes dst[o] = b[o] + Σ_i w[o·cols+i]·x[i] in the
// package-documented f32 order.
func MatVecBiasF32(dst, x, w, b []float32, rows, cols int) {
	MatVecBiasF32Ref(dst, x, w, b, rows, cols)
}

// HasAVX reports whether the Packed kernels may run: never off amd64.
func HasAVX() bool { return false }

const noPacked = "simd: Packed kernels need AVX; HasAVX is false on this platform"

func PackedNarrowF64(dst, x, w, b []float64, rows, cols int, relu bool)             { panic(noPacked) }
func PackedNarrow2F64(da, db, xa, xb, w, b []float64, rows, cols int)               { panic(noPacked) }
func PackedWideF64(dst, x, w, b []float64, rows, cols int, relu bool)               { panic(noPacked) }
func PackedSparseF64(dst, x, w, b []float64, nz []int32, rows, cols int, relu bool) { panic(noPacked) }
func PackedNarrowF32(dst, x, w, b []float32, rows, cols int, relu bool)             { panic(noPacked) }
func PackedNarrow2F32(da, db, xa, xb, w, b []float32, rows, cols int)               { panic(noPacked) }

// MaxF64 and MaxF32 are MaxRef off amd64.
func MaxF64(dst, src []float64) { MaxRef(dst, src) }
func MaxF32(dst, src []float32) { MaxRef(dst, src) }
