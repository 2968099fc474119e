package simd

// SSE/AVX implementations (kernels_amd64.s, packed_amd64.s,
// max_amd64.s). Each follows the summation order defined by its
// scalar reference exactly, so asm and reference are bit-identical.
// SSE2 is part of the amd64 baseline, so MatVecBiasF32 needs no
// feature detection; the Packed kernels and the Max folds are
// AVX-only and must be gated on HasAVX. The two head kernels,
// MatVecBiasF32's wide loop and PackedSparseF64, also carry an
// AVX-512 route that their entry picks on useAVX512. All are NOSPLIT
// leaves that allocate nothing.

// MatVecBiasF32 computes dst[o] = b[o] + Σ_i w[o·cols+i]·x[i] in the
// package-documented f32 order.
//
//go:noescape
func MatVecBiasF32(dst, x, w, b []float32, rows, cols int)

// PackedNarrowF64 computes dst[o] = b[o] + Σ_i w_o[i]·x[i] for the
// packed rows of w in nn's f64 narrow order (cols < 32), ReLU-clamped
// in register when relu is set (v ≤ 0 becomes +0, NaN keeps its
// payload).
//
//go:noescape
func PackedNarrowF64(dst, x, w, b []float64, rows, cols int, relu bool)

// PackedNarrow2F64 is PackedNarrowF64 for two input windows sharing
// the packed weights, both always ReLU-clamped.
//
//go:noescape
func PackedNarrow2F64(da, db, xa, xb, w, b []float64, rows, cols int)

// PackedWideF64 computes the packed rows in nn's f64 wide dense order
// (cols ≥ 32), ReLU-clamped when relu is set.
//
//go:noescape
func PackedWideF64(dst, x, w, b []float64, rows, cols int, relu bool)

// PackedSparseF64 computes the packed rows in nn's f64 sparse order:
// bias plus one product per column listed in nz, ascending,
// ReLU-clamped when relu is set.
//
//go:noescape
func PackedSparseF64(dst, x, w, b []float64, nz []int32, rows, cols int, relu bool)

// PackedNarrowF32 computes the packed rows in MatVecBiasF32Ref's
// narrow order (cols < 32), ReLU-clamped when relu is set.
//
//go:noescape
func PackedNarrowF32(dst, x, w, b []float32, rows, cols int, relu bool)

// PackedNarrow2F32 is PackedNarrowF32 for two input windows sharing
// the packed weights, in MatVecBias2F32Ref's order, both always
// ReLU-clamped.
//
//go:noescape
func PackedNarrow2F32(da, db, xa, xb, w, b []float32, rows, cols int)

// MaxF64 is MaxRef at float64 (AVX, like the Packed kernels).
//
//go:noescape
func MaxF64(dst, src []float64)

// MaxF32 is MaxRef at float32 (AVX, like the Packed kernels).
//
//go:noescape
func MaxF32(dst, src []float32)

func cpuHasAVX() bool

// useAVX selects the 8-wide variant of the wide loop inside
// MatVecBiasF32. The results are bit-identical either way (and to the
// reference), so the CPU gate selects speed, never values.
// VMULPS/VADDPS only: FMA would skip the product rounding the
// reference pins.
var useAVX = cpuHasAVX()

func cpuHasAVX512() bool

// useAVX512 selects the ZMM routes of the two head kernels: four rows
// per pass in MatVecBiasF32's wide loop, four 16-row units per pass
// in PackedSparseF64. Each lane runs the same VMULPx/VADDPx sequence
// as on the YMM and SSE routes, so this gate, too, selects speed,
// never values.
var useAVX512 = cpuHasAVX512()

// HasAVX reports whether the CPU and OS support AVX, which the Packed
// kernels require.
func HasAVX() bool { return useAVX }
