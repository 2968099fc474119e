package simd

// MaxRef is the portable definition of the running-max fold the
// streamer's pooling applies: dst[i] = src[i] where src[i] > dst[i],
// for i < min(len(dst), len(src)). The strict comparison decides every
// edge — a NaN on either side keeps dst's value, and of +0 and −0 the
// one already in dst stays — exactly as MaxPool1D's scan does. MaxF64
// and MaxF32 must match it bit for bit; off amd64 it is their
// implementation.
func MaxRef[S float32 | float64](dst, src []S) {
	if len(src) > len(dst) {
		src = src[:len(dst)]
	}
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}
