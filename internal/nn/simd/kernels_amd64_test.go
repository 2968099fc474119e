package simd

import (
	"math"
	"math/rand"
	"testing"
)

// TestMatVecBiasF32WideRoutes holds both wide loops of MatVecBiasF32
// (cols ≥ 32) to MatVecBiasF32Ref, bit for bit: the SSE loop, which a
// host with AVX never takes on its own, and the AVX loop where the CPU
// has it. Special values ride in the weights and inputs; two NaNs
// match whatever their payload.
func TestMatVecBiasF32WideRoutes(t *testing.T) {
	routes := []bool{false}
	if cpuHasAVX() {
		routes = append(routes, true)
	}
	saved := useAVX
	defer func() { useAVX = saved }()
	specials := []uint32{0x80000000, 0x00000001, 0x807fffff, 0x7f7fffff, 0x7f800000, 0xff800000, 0x7fc00123}
	rng := rand.New(rand.NewSource(73))
	for _, avx := range routes {
		useAVX = avx
		for _, cols := range []int{32, 33, 35, 47, 48, 63, 64, 100, 257, 864} {
			for rows := 1; rows <= 5; rows++ {
				x, w, b := randF32(rng, cols), randF32(rng, rows*cols), randF32(rng, rows)
				if rows > 2 { // rows 1 and 2 stay finite
					for i, bits := range specials {
						w[rng.Intn(len(w))] = math.Float32frombits(bits)
						if i%3 == 0 {
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
						t.Fatalf("avx=%v rows=%d cols=%d out %d: asm %x, ref %x",
							avx, rows, cols, o, math.Float32bits(got[o]), math.Float32bits(want[o]))
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
