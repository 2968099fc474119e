package falldet

import (
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
type Precision = tensor.Precision

const (
	// PrecisionF64 is the double-precision reference pipeline — the
	// default, bit-identical to the pre-generic implementation.
	PrecisionF64 = tensor.F64
	// PrecisionF32 is the lowered single-precision deployment
	// pipeline.
	PrecisionF32 = tensor.F32
)

// ParsePrecision reads the spellings Precision.String produces ("f64",
// "f32"; "float64"/"float32" are accepted as aliases).
func ParsePrecision(s string) (Precision, error) { return tensor.ParsePrecision(s) }

// edgeConfig is the detector's streaming geometry and threshold in
// edge's form. det.cfg went through withDefaults, so Threshold is the
// resolved value and a literal 0 is intentional: it is spelled in the
// sentinel form edge expects (its own zero value means "unset").
func (det *Detector) edgeConfig() edge.DetectorConfig {
	ec := edge.DetectorConfig{WindowMS: det.cfg.WindowMS, Overlap: det.cfg.Overlap, Threshold: det.cfg.Threshold}
	if ec.Threshold == 0 {
		ec.Threshold = edge.ThresholdAlways
	}
	return ec
}

// cascadeStreamAt builds the supervised cascade at compiled width S.
// At float32 both CNN tiers lower their weights at construction; the
// threshold floor and the supervisor are width-independent.
func cascadeStreamAt[S tensor.Scalar](cd *CascadeDetector, primary, fallback model.Classifier) (*cascade.CascadeOf[S], error) {
	ec := cd.primary.edgeConfig()
	shape := []int{ec.WindowMS * dataset.SampleRate / 1000, imu.NumChannels}
	cfg := cascade.Config{WindowMS: ec.WindowMS, Overlap: ec.Overlap, Threshold: ec.Threshold}
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
	dets, err := perWorker(cfg.Workers, []model.Classifier{det.model},
		func(m []model.Classifier) (*edge.DetectorOf[S], error) {
			return edge.NewDetectorOf[S](m[0], det.edgeConfig())
		})
	if err != nil {
		return nil, err
	}
	return eval.EvaluateRobustnessParallel(dets, d.Trials, cfg.Kinds, cfg.Severities, cfg.Seed), nil
}

// evalCascadeRobustnessAt is CascadeDetector.EvaluateRobustness
// compiled at width S.
func evalCascadeRobustnessAt[S tensor.Scalar](cd *CascadeDetector, d *Dataset, cfg RobustnessConfig) (*RobustnessReport, error) {
	cs, err := perWorker(cfg.Workers, []model.Classifier{cd.primary.model, cd.fallback.model},
		func(m []model.Classifier) (*cascade.CascadeOf[S], error) { return cascadeStreamAt[S](cd, m[0], m[1]) })
	if err != nil {
		return nil, err
	}
	return eval.EvaluateCascadeRobustnessParallel(cs, d.Trials, cfg.Kinds, cfg.Severities, cfg.Seed), nil
}

// perWorker builds one sweep pipeline per worker (at least one).
// Worker 0 scores on the given models; the others on weight-identical
// clones of every network model, since the streaming pipeline and the
// network's activation scratch are single-goroutine. Threshold models
// are stateless at scoring time and are shared.
func perWorker[P any](workers int, models []model.Classifier, build func([]model.Classifier) (P, error)) ([]P, error) {
	out := make([]P, max(workers, 1))
	for i := range out {
		m := models
		if i > 0 {
			m = make([]model.Classifier, len(models))
			for j, clf := range models {
				m[j] = clf
				if nm, ok := clf.(*model.NetModel); ok {
					m[j] = nm.Clone()
				}
			}
		}
		p, err := build(m)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}
