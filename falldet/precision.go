package falldet

import (
	"fmt"

	"repro/internal/cascade"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/eval"
	"repro/internal/imu"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Precision selects the compiled scalar width of a streaming pipeline.
// Training always runs float64 and produces one float64 checkpoint;
// the precision choice is made at deployment time, when the detector
// is wrapped in a streaming pipeline — a float32 pipeline lowers the
// checkpoint's weights once at construction and scores every window in
// single precision. See DESIGN.md §14 for what stays float64 at every
// width (filter accumulators, sensor health, training, metrics).
type Precision int

const (
	// PrecisionF64 is the double-precision reference pipeline — the
	// default, bit-identical to the pre-generic implementation.
	PrecisionF64 Precision = iota
	// PrecisionF32 is the lowered single-precision deployment
	// pipeline.
	PrecisionF32
)

// String names the precision the way results headers spell it.
func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	}
	return fmt.Sprintf("precision(%d)", int(p))
}

// ParsePrecision reads the spellings String produces ("f64", "f32";
// "float64"/"float32" are accepted as aliases).
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64":
		return PrecisionF64, nil
	case "f32", "float32":
		return PrecisionF32, nil
	}
	return 0, fmt.Errorf("falldet: unknown precision %q (want f64 or f32)", s)
}

// streamAt builds the detector's streaming pipeline at compiled width
// S. At float32 the float64 checkpoint's weights are lowered once
// here, and every subsequent window scores in single precision; the
// float64 training artefact is untouched.
func streamAt[S tensor.Scalar](det *Detector, clf model.Classifier) (*edge.DetectorOf[S], error) {
	thr := det.cfg.Threshold
	if thr == 0 {
		thr = edge.ThresholdAlways
	}
	return edge.NewDetectorOf[S](clf, edge.DetectorConfig{
		WindowMS:  det.cfg.WindowMS,
		Overlap:   det.cfg.Overlap,
		Threshold: thr,
	})
}

// cascadeStreamAt builds the supervised cascade at compiled width S.
// At float32 both CNN tiers lower their weights at construction; the
// threshold floor and the supervisor are width-independent.
func cascadeStreamAt[S tensor.Scalar](cd *CascadeDetector, primary, fallback model.Classifier) (*cascade.CascadeOf[S], error) {
	winSamples := cd.primary.cfg.WindowMS * dataset.SampleRate / 1000
	shape := []int{winSamples, imu.NumChannels}
	cfg := cascade.Config{
		WindowMS: cd.primary.cfg.WindowMS,
		Overlap:  cd.primary.cfg.Overlap,
	}
	cfg.Threshold = cd.primary.cfg.Threshold
	if cfg.Threshold == 0 {
		cfg.Threshold = edge.ThresholdAlways
	}
	if nm, ok := cd.primary.model.(*model.NetModel); ok {
		cost, err := edge.ModelCost(nm.Net, shape)
		if err != nil {
			return nil, err
		}
		cfg.PrimaryCost = cost
	}
	if nm, ok := cd.fallback.model.(*model.NetModel); ok {
		cost, err := edge.ModelCost(nm.Net, shape)
		if err != nil {
			return nil, err
		}
		cfg.FallbackCost = cost
	}
	return cascade.NewOf[S](primary, fallback, cfg)
}

// evalRobustnessAt is EvaluateRobustness compiled at width S.
func evalRobustnessAt[S tensor.Scalar](det *Detector, d *Dataset, cfg RobustnessConfig) (*RobustnessReport, error) {
	w := cfg.Workers
	if w < 1 {
		w = 1
	}
	dets := make([]*edge.DetectorOf[S], w)
	for i := range dets {
		clf := model.Classifier(det.model)
		if nm, ok := det.model.(*model.NetModel); ok && i > 0 {
			clf = nm.Clone()
		}
		s, err := streamAt[S](det, clf)
		if err != nil {
			return nil, err
		}
		dets[i] = s
	}
	return eval.EvaluateRobustnessParallel(dets, d.Trials, cfg.Kinds, cfg.Severities, cfg.Seed), nil
}

// evalCascadeRobustnessAt is CascadeDetector.EvaluateRobustness
// compiled at width S.
func evalCascadeRobustnessAt[S tensor.Scalar](cd *CascadeDetector, d *Dataset, cfg RobustnessConfig) (*RobustnessReport, error) {
	w := cfg.Workers
	if w < 1 {
		w = 1
	}
	cs := make([]*cascade.CascadeOf[S], w)
	for i := range cs {
		primary := model.Classifier(cd.primary.model)
		fallback := model.Classifier(cd.fallback.model)
		if i > 0 {
			if nm, ok := cd.primary.model.(*model.NetModel); ok {
				primary = nm.Clone()
			}
			if nm, ok := cd.fallback.model.(*model.NetModel); ok {
				fallback = nm.Clone()
			}
		}
		c, err := cascadeStreamAt[S](cd, primary, fallback)
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	return eval.EvaluateCascadeRobustnessParallel(cs, d.Trials, cfg.Kinds, cfg.Severities, cfg.Seed), nil
}
