package nn

import (
	"math"

	"repro/internal/tensor"
)

// Generic inference-side primitives shared by the compiled streaming
// head. Training stays float64-only — these helpers exist so the
// forward/inference arithmetic can run at either scalar width with one
// definition, and so the float64 instantiation is literally the same
// expression the layer objects evaluate (bit-identity by construction,
// not by tolerance).

// reluInto writes max(v, 0) element-wise — ReLU.Forward's exact clamp
// (v ≤ 0 becomes 0, NaN propagates because the comparison is false).
//
//fallvet:hotpath
func reluInto[S tensor.Scalar](dst, x []S) {
	for i, v := range x {
		if v <= 0 {
			dst[i] = 0
		} else {
			dst[i] = v
		}
	}
}

// sigmoidInto writes the logistic function element-wise. The transfer
// runs through float64 at both widths, so the float64 instantiation is
// Sigmoid.Forward's exact expression and the float32 one differs only
// by the final rounding of an exactly-computed double.
//
//fallvet:hotpath
func sigmoidInto[S tensor.Scalar](dst, x []S) {
	for i, v := range x {
		dst[i] = S(1 / (1 + math.Exp(-float64(v))))
	}
}
