package nn

import (
	"math/rand"
	"testing"

	"repro/internal/nn/simd"
)

// Kernel rows for scripts/bench.sh: each SIMD kernel route the
// streamer takes, at the paper CNN's shapes, next to its scalar
// reference at the same shape (_Ref) — the frozen Go kernel at f64,
// the simd Ref at f32. bench.sh gates every pair's ratio, which both
// runs measure on the same host in the same run.
//
//	HeadSparse  Dense(864→64) on a ReLU-fed input, a quarter zeros
//	HeadDense   Dense(864→64) on an input with no zeros
//	ConvPair    two 16-filter conv rows over 5×3 windows, ReLU-fused
//	ConvPool    ConvPair plus the pool-2 fold of the two rows, over a
//	            ring of distinct windows; the _Ref is the scalar
//	            kernel, reluClamp and the `>` loop
//
// ConvPair replays one input, so the branch predictor learns the sign
// pattern of its outputs and a branchy clamp looks cheaper there than
// it is on a live stream. ConvPool slides over benchPoolRing windows
// of one random stream, as the streamer's conv rows do, which no
// predictor memorises.

const (
	benchHeadRows, benchHeadCols = 64, 864
	benchConvRows, benchConvCols = 16, 15
	benchConvKernel, benchConvIn = 5, 3
	benchPoolRing                = 256 // a power of two: the ring index is a mask
)

// kernelBench holds one shape's data at both widths.
type kernelBench struct {
	w, b, xa, xb   []float64
	w32, b32, xa32 []float32
	xb32           []float32
	rows, cols     int
	out, outB      []float64
	out32, out32B  []float32
	m64            matOf[float64]
	m32            matOf[float32]
}

func newKernelBench(b *testing.B, rows, cols int, zeroFrac float64) *kernelBench {
	if !simd.HasAVX() {
		b.Skip("CPU lacks AVX: the streamer keeps the scalar kernels")
	}
	rng := rand.New(rand.NewSource(5))
	k := &kernelBench{rows: rows, cols: cols}
	k.w, k.xa, k.b = randKernelCase(rng, rows, cols)
	k.xb = make([]float64, cols)
	for i := range k.xb {
		k.xb[i] = rng.NormFloat64()
	}
	zeroSome(rng, k.xa, int(zeroFrac*float64(cols)))
	k.w32, k.b32 = lower32(k.w), lower32(k.b)
	k.xa32, k.xb32 = lower32(k.xa), lower32(k.xb)
	k.out, k.outB = make([]float64, rows), make([]float64, rows)
	k.out32, k.out32B = make([]float32, rows), make([]float32, rows)
	k.m64 = newMat[float64](k.w, k.b, rows, cols)
	k.m32 = newMat[float32](k.w, k.b, rows, cols)
	b.ResetTimer()
	return k
}

func benchHead(b *testing.B, zeroFrac float64, f func(k *kernelBench)) {
	k := newKernelBench(b, benchHeadRows, benchHeadCols, zeroFrac)
	for i := 0; i < b.N; i++ {
		f(k)
	}
}

func benchConv(b *testing.B, f func(k *kernelBench)) {
	k := newKernelBench(b, benchConvRows, benchConvCols, 0)
	for i := 0; i < b.N; i++ {
		f(k)
	}
}

func headF64(k *kernelBench)    { k.m64.apply(k.out, k.xa, false) }
func headF64Ref(k *kernelBench) { matVecBias(k.out, k.xa, k.w, k.b, k.rows, k.cols) }
func headF32(k *kernelBench)    { k.m32.apply(k.out32, k.xa32, false) }
func headF32Ref(k *kernelBench) {
	simd.MatVecBiasF32Ref(k.out32, k.xa32, k.w32, k.b32, k.rows, k.cols)
}

func Benchmark_Kernel_HeadSparse_F64(b *testing.B)     { benchHead(b, 0.25, headF64) }
func Benchmark_Kernel_HeadSparse_F64_Ref(b *testing.B) { benchHead(b, 0.25, headF64Ref) }
func Benchmark_Kernel_HeadSparse_F32(b *testing.B)     { benchHead(b, 0.25, headF32) }
func Benchmark_Kernel_HeadSparse_F32_Ref(b *testing.B) { benchHead(b, 0.25, headF32Ref) }
func Benchmark_Kernel_HeadDense_F64(b *testing.B)      { benchHead(b, 0, headF64) }
func Benchmark_Kernel_HeadDense_F64_Ref(b *testing.B)  { benchHead(b, 0, headF64Ref) }
func Benchmark_Kernel_HeadDense_F32(b *testing.B)      { benchHead(b, 0, headF32) }
func Benchmark_Kernel_HeadDense_F32_Ref(b *testing.B)  { benchHead(b, 0, headF32Ref) }

func Benchmark_Kernel_ConvPair_F64(b *testing.B) {
	benchConv(b, func(k *kernelBench) { k.m64.apply2ReLU(k.out, k.outB, k.xa, k.xb) })
}

func Benchmark_Kernel_ConvPair_F64_Ref(b *testing.B) {
	benchConv(b, func(k *kernelBench) {
		matVecBias2(k.out, k.outB, k.xa, k.xb, k.w, k.b, k.rows, k.cols)
		reluClamp(k.out)
		reluClamp(k.outB)
	})
}

func Benchmark_Kernel_ConvPair_F32(b *testing.B) {
	benchConv(b, func(k *kernelBench) { k.m32.apply2ReLU(k.out32, k.out32B, k.xa32, k.xb32) })
}

func Benchmark_Kernel_ConvPair_F32_Ref(b *testing.B) {
	benchConv(b, func(k *kernelBench) {
		simd.MatVecBias2F32Ref(k.out32, k.out32B, k.xa32, k.xb32, k.w32, k.b32, k.rows, k.cols)
		reluClamp(k.out32)
		reluClamp(k.out32B)
	})
}

// convPoolBench is benchConv's shape over a ring of distinct windows:
// window j is rows j..j+4 of one random 3-channel stream.
type convPoolBench struct {
	*kernelBench
	stream   []float64
	stream32 []float32
	rmax     []float64
	rmax32   []float32
}

func benchConvPool(b *testing.B, f func(k *convPoolBench, xa, xb int)) {
	k := &convPoolBench{kernelBench: newKernelBench(b, benchConvRows, benchConvCols, 0)}
	rng := rand.New(rand.NewSource(6))
	k.stream = make([]float64, (benchPoolRing+benchConvKernel)*benchConvIn)
	for i := range k.stream {
		k.stream[i] = rng.NormFloat64()
	}
	k.stream32 = lower32(k.stream)
	k.rmax, k.rmax32 = make([]float64, benchConvRows), make([]float32, benchConvRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := 2 * i & (benchPoolRing - 1)
		f(k, j*benchConvIn, (j+1)*benchConvIn)
	}
}

func Benchmark_Kernel_ConvPool_F64(b *testing.B) {
	benchConvPool(b, func(k *convPoolBench, xa, xb int) {
		k.m64.apply2ReLU(k.out, k.outB, k.stream[xa:xa+benchConvCols], k.stream[xb:xb+benchConvCols])
		copy(k.rmax, k.out)
		maxInto(k.rmax, k.outB)
	})
}

func Benchmark_Kernel_ConvPool_F64_Ref(b *testing.B) {
	benchConvPool(b, func(k *convPoolBench, xa, xb int) {
		matVecBias2(k.out, k.outB, k.stream[xa:xa+benchConvCols], k.stream[xb:xb+benchConvCols], k.w, k.b, k.rows, k.cols)
		reluClamp(k.out)
		reluClamp(k.outB)
		copy(k.rmax, k.out)
		simd.MaxRef(k.rmax, k.outB)
	})
}

func Benchmark_Kernel_ConvPool_F32(b *testing.B) {
	benchConvPool(b, func(k *convPoolBench, xa, xb int) {
		k.m32.apply2ReLU(k.out32, k.out32B, k.stream32[xa:xa+benchConvCols], k.stream32[xb:xb+benchConvCols])
		copy(k.rmax32, k.out32)
		maxInto(k.rmax32, k.out32B)
	})
}

func Benchmark_Kernel_ConvPool_F32_Ref(b *testing.B) {
	benchConvPool(b, func(k *convPoolBench, xa, xb int) {
		simd.MatVecBias2F32Ref(k.out32, k.out32B, k.stream32[xa:xa+benchConvCols], k.stream32[xb:xb+benchConvCols], k.w32, k.b32, k.rows, k.cols)
		reluClamp(k.out32)
		reluClamp(k.out32B)
		copy(k.rmax32, k.out32)
		simd.MaxRef(k.rmax32, k.out32B)
	})
}
