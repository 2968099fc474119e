package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn/simd"
	"repro/internal/tensor"
)

// Kernels FuzzPackedKernels decodes: the three matrix-vector orders of
// matOf.apply, the pair kernel of apply2ReLU, and the running-max fold.
const (
	fuzzNarrow = iota
	fuzzNarrow2
	fuzzWide
	fuzzSparse
	fuzzMax
	fuzzKernels
)

// FuzzPackedKernels is the differential oracle of the assembly in
// internal/nn/simd. From each input it decodes a kernel, a width (f64
// or f32), rows and cols that need not be whole pack units or lane
// counts, the relu flag, a zero count on either side of the wide
// kernels' 1/8 sparse switch, and raw value bits written over the
// weights, inputs and biases (NaN payloads of both signs, subnormals,
// ±0, ±Inf). It runs simd.Pack plus the kernel, through matOf as the
// streamer does, against the scalar route: at f64 the frozen Go
// kernels, at f32 simd's Ref order. Results must match bit for bit,
// except that two NaNs match whatever their payload where the scalar
// route leaves the payload undefined (sameBits64). The max fold must
// match simd.MaxRef bit for bit, NaN payloads included. It drives the
// route the host takes; without AVX the f64 kernels and the max fold
// are the scalar route itself, and only the f32 rows run assembly.
// MatVecBiasF32's SSE wide loop, which an AVX host never takes, has
// its own oracle in simd (TestMatVecBiasF32WideRoutes).
func FuzzPackedKernels(f *testing.F) {
	// Each raw record is one value: a target byte (weights, input a,
	// input b or bias), a little-endian uint16 index and the value's
	// bits, eight bytes at f64 and the low four at f32.
	rec := func(target byte, index uint16, bits uint64) []byte {
		r := binary.LittleEndian.AppendUint16([]byte{target}, index)
		return binary.LittleEndian.AppendUint64(r, bits)
	}
	var specials []byte
	for i, b := range epilogueSpecials64 {
		specials = append(specials, rec(byte(i), uint16(3*i), b)...)
	}
	for i, b := range epilogueSpecials32 {
		specials = append(specials, rec(byte(i), uint16(5*i+1), uint64(b))...)
	}
	for k := byte(0); k < fuzzKernels; k++ {
		for _, w := range []byte{0, 8} { // f64, f32
			f.Add(k|w, uint8(17), uint8(7), uint8(2), int64(k), specials)
			f.Add(k|w|16, uint8(33), uint8(200), uint8(5), int64(k)+10, []byte{})
		}
	}

	f.Fuzz(func(t *testing.T, sel, rowsB, colsB, zerosB uint8, seed int64, raw []byte) {
		kernel := int(sel&7) % fuzzKernels
		f32 := sel&8 != 0
		relu := sel&16 != 0
		rows := 1 + int(rowsB)%64 // 0..3 whole f64 units, 0..7 f32, plus leftovers
		cols := 1 + int(colsB)%31 // narrow: below 32
		switch kernel {
		case fuzzWide, fuzzSparse:
			cols = 32 + 5*int(colsB) // up to 1307, past maxSparseCols
		case fuzzMax:
			cols = 1 + int(colsB) // every length up to 256, tails of every lane count
		}
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, rows*cols)
		xa := make([]float64, cols)
		xb := make([]float64, cols)
		b := make([]float64, rows)
		for _, v := range [][]float64{w, xa, xb, b} {
			for i := range v {
				v[i] = rng.NormFloat64() * 4
			}
		}
		// Zeros around the switch: wide stays 1..4 zeros short of
		// cols/8, sparse has 0..3 more. Raw records may add zeros.
		zeros := cols/8 - 1 - int(zerosB%4)
		if kernel == fuzzSparse {
			zeros = cols/8 + int(zerosB%4)
		}
		zeroSome(rng, xa, min(max(zeros, 0), cols))
		zeroSome(rng, xb, min(max(zeros, 0), cols))
		size := 8
		if f32 {
			size = 4
		}
		for ; len(raw) >= 3+size; raw = raw[3+size:] {
			dst := [][]float64{w, xa, xb, b}[raw[0]%4]
			i := int(binary.LittleEndian.Uint16(raw[1:])) % len(dst)
			if f32 {
				dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[3:])))
			} else {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[3:]))
			}
		}

		// The fold's source runs up to two past dst, which must not fold.
		src := append(xb, b...)[:cols+rows%3]
		switch {
		case kernel == fuzzMax && f32:
			fuzzMaxFold(t, lower32(xa), lower32(src))
		case kernel == fuzzMax:
			fuzzMaxFold(t, xa, src)
		case f32:
			m := newMat[float32](w, b, rows, cols)
			w32, b32, xa32, xb32 := lower32(w), lower32(b), lower32(xa), lower32(xb)
			got, want := make([]float32, rows), make([]float32, rows)
			if kernel == fuzzNarrow2 {
				gb, wb := make([]float32, rows), make([]float32, rows)
				m.apply2ReLU(got, gb, xa32, xb32)
				simd.MatVecBias2F32Ref(want, wb, xa32, xb32, w32, b32, rows, cols)
				reluClamp(want)
				reluClamp(wb)
				sameBits32(t, "apply2ReLU b", gb, wb)
			} else {
				m.apply(got, xa32, relu)
				simd.MatVecBiasF32Ref(want, xa32, w32, b32, rows, cols)
				if relu {
					reluClamp(want)
				}
			}
			sameBits32(t, "f32", got, want)
		default:
			m := newMat[float64](w, b, rows, cols)
			got, want := make([]float64, rows), make([]float64, rows)
			switch {
			case kernel == fuzzNarrow2:
				gb, wb := make([]float64, rows), make([]float64, rows)
				m.apply2ReLU(got, gb, xa, xb)
				matVecBias2(want, wb, xa, xb, w, b, rows, cols)
				reluClamp(want)
				reluClamp(wb)
				sameBits64(t, "apply2ReLU b", gb, wb)
			case relu:
				m.apply(got, xa, true)
				matVecBias(want, xa, w, b, rows, cols)
				reluClamp(want)
			default:
				m.apply(got, xa, false)
				matVecBias(want, xa, w, b, rows, cols)
			}
			sameBits64(t, "f64", got, want)
		}
	})
}

// fuzzMaxFold folds src into a copy of dst through maxInto and through
// simd.MaxRef; only len(dst) elements fold, and every result bit,
// NaN payloads included, must match.
func fuzzMaxFold[S tensor.Scalar](t *testing.T, dst, src []S) {
	got := append([]S(nil), dst...)
	want := append([]S(nil), dst...)
	maxInto(got, src)
	simd.MaxRef(want, src)
	exactBits(t, "maxInto", got, want)
}
