package simd

import (
	"math"
	"math/rand"
	"testing"
)

// f32Route names one wide loop of MatVecBiasF32 by the gates that pick
// it.
type f32Route struct {
	name        string
	avx, avx512 bool
}

// TestMatVecBiasF32WideRoutes holds every wide loop of MatVecBiasF32
// (cols ≥ 32) to MatVecBiasF32Ref, bit for bit: the SSE loop, which a
// host with AVX never takes on its own, the AVX loop, and the AVX-512
// loop where the CPU has them. Rows run 1–13, so the four-row ZMM
// loop leaves every count of rows to the YMM loop; cols cover every
// remainder class past the last 16-column superblock, up to the
// Dense(864→64) head. Special values ride in the weights and inputs;
// two NaNs match whatever their payload.
func TestMatVecBiasF32WideRoutes(t *testing.T) {
	routes := []f32Route{{name: "sse"}}
	if cpuHasAVX() {
		routes = append(routes, f32Route{name: "avx", avx: true})
	}
	if cpuHasAVX512() {
		routes = append(routes, f32Route{name: "avx512", avx: true, avx512: true})
	} else {
		t.Log("no AVX-512 on this CPU: the ZMM loop is not exercised")
	}
	savedAVX, saved512 := useAVX, useAVX512
	defer func() { useAVX, useAVX512 = savedAVX, saved512 }()
	specials := []uint32{0x80000000, 0x00000001, 0x807fffff, 0x7f7fffff, 0x7f800000, 0xff800000, 0x7fc00123}
	rng := rand.New(rand.NewSource(73))
	for _, r := range routes {
		useAVX, useAVX512 = r.avx, r.avx512
		for _, cols := range []int{32, 33, 35, 47, 48, 63, 64, 100, 257, 863, 864} {
			for rows := 1; rows <= 13; rows++ {
				x, w, b := randF32(rng, cols), randF32(rng, rows*cols), randF32(rng, rows)
				if rows%4 != 1 { // one finite case per leftover count
					for i, bits := range specials {
						w[rng.Intn(len(w))] = math.Float32frombits(bits)
						if i < 3 { // tiny and signed-zero inputs leave other rows finite
							x[rng.Intn(cols)] = math.Float32frombits(bits)
						}
					}
				}
				got, want := make([]float32, rows), make([]float32, rows)
				MatVecBiasF32(got, x, w, b, rows, cols)
				MatVecBiasF32Ref(want, x, w, b, rows, cols)
				for o := range want {
					nan := got[o] != got[o] && want[o] != want[o]
					if !nan && math.Float32bits(got[o]) != math.Float32bits(want[o]) {
						t.Fatalf("%s rows=%d cols=%d out %d: asm %x, ref %x",
							r.name, rows, cols, o, math.Float32bits(got[o]), math.Float32bits(want[o]))
					}
				}
			}
		}
	}
}

// TestPackedSparseF64Routes holds PackedSparseF64's ZMM route, which
// runs four 16-row units per pass, to its YMM route, bit for bit: ReLU
// on and off, 16–80 rows (so blocks of four units leave 0–3 units to
// the YMM loop), and empty, full and random nonzero lists. Special
// values ride in the weights, inputs and biases; two NaNs match
// whatever their payload. The YMM route itself is held to nn's scalar
// sparse kernel by FuzzPackedKernels.
func TestPackedSparseF64Routes(t *testing.T) {
	if !cpuHasAVX512() {
		t.Skip("no AVX-512 on this CPU: PackedSparseF64 has one route")
	}
	saved := useAVX512
	defer func() { useAVX512 = saved }()
	specials := []uint64{0x8000000000000000, 0x0000000000000001, 0x800fffffffffffff,
		0x7fefffffffffffff, 0x7ff0000000000000, 0xfff0000000000000, 0x7ff8000000000123}
	rng := rand.New(rand.NewSource(91))
	for _, cols := range []int{1, 7, 64, 864} {
		for rows := Unit64; rows <= 5*Unit64; rows += Unit64 {
			src, x, b := randF64(rng, rows*cols), randF64(rng, cols), randF64(rng, rows)
			if rows != 2*Unit64 { // one finite shape per column count
				for i, bits := range specials {
					src[rng.Intn(len(src))] = math.Float64frombits(bits)
					b[rng.Intn(rows)] = math.Float64frombits(bits)
					if i < 3 { // tiny and signed-zero inputs leave other rows finite
						x[rng.Intn(cols)] = math.Float64frombits(bits)
					}
				}
			}
			w := make([]float64, rows*cols)
			Pack(w, src, rows, cols, Unit64)
			full := make([]int32, cols)
			var some []int32
			for i := range full {
				full[i] = int32(i)
				if rng.Intn(3) == 0 {
					some = append(some, int32(i))
				}
			}
			for _, nz := range [][]int32{nil, full, some} {
				for _, relu := range []bool{false, true} {
					zmm, ymm := make([]float64, rows), make([]float64, rows)
					useAVX512 = true
					PackedSparseF64(zmm, x, w, b, nz, rows, cols, relu)
					useAVX512 = false
					PackedSparseF64(ymm, x, w, b, nz, rows, cols, relu)
					for o := range ymm {
						nan := zmm[o] != zmm[o] && ymm[o] != ymm[o]
						if !nan && math.Float64bits(zmm[o]) != math.Float64bits(ymm[o]) {
							t.Fatalf("rows=%d cols=%d nz=%d relu=%v out %d: zmm %x, ymm %x",
								rows, cols, len(nz), relu, o, math.Float64bits(zmm[o]), math.Float64bits(ymm[o]))
						}
					}
				}
			}
		}
	}
}

func randF32(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64() * 4)
	}
	return s
}

func randF64(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64() * 4
	}
	return s
}
