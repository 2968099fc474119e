package falldet

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/artifact"
	"repro/internal/cascade"
	"repro/internal/edge"
)

// Cascade surface, re-exported so degradation-aware deployments can
// stay on this package.
type (
	// Tier identifies one cascade level; lower is more capable.
	Tier = cascade.Tier
	// CascadeDecision is one StreamCascade.Push outcome.
	CascadeDecision = cascade.Decision
	// CascadeSim is a full-trial cascade simulation outcome.
	CascadeSim = cascade.TrialSim
	// StreamCascade is the real-time supervised three-tier pipeline.
	StreamCascade = cascade.Cascade
	// GroupHealth is the per-channel-group health breakdown the
	// cascade supervisor steers by.
	GroupHealth = edge.GroupHealth
)

// The cascade tiers, most to least capable.
const (
	TierPrimary   = cascade.TierPrimary
	TierFallback  = cascade.TierFallback
	TierThreshold = cascade.TierThreshold
	NumTiers      = cascade.NumTiers
)

// CascadeDetector pairs a trained primary detector with a trained
// accelerometer-only fallback sharing the same streaming geometry. It
// is the trainable/serialisable artefact; Stream instantiates the
// real-time supervised pipeline around it.
type CascadeDetector struct {
	primary  *Detector
	fallback *Detector
}

// NewCascadeDetector pairs two trained detectors into a cascade. The
// fallback must read only the accelerometer columns (KindCNNAccel) —
// that blindness to the gyro is what makes it a valid tier 1 — and
// both must share the window geometry, since they score the same ring.
func NewCascadeDetector(primary, fallback *Detector) (*CascadeDetector, error) {
	if primary == nil || fallback == nil {
		return nil, fmt.Errorf("falldet: cascade needs both a primary and a fallback detector")
	}
	if fallback.kind != KindCNNAccel {
		return nil, fmt.Errorf("falldet: cascade fallback is a %v, want %v", fallback.kind, KindCNNAccel)
	}
	if primary.cfg.WindowMS != fallback.cfg.WindowMS || primary.cfg.Overlap != fallback.cfg.Overlap {
		return nil, fmt.Errorf("falldet: cascade geometry mismatch: primary %d ms/%.2f, fallback %d ms/%.2f",
			primary.cfg.WindowMS, primary.cfg.Overlap, fallback.cfg.WindowMS, fallback.cfg.Overlap)
	}
	return &CascadeDetector{primary: primary, fallback: fallback}, nil
}

// TrainCascade fits both cascade members on the same dataset with the
// same configuration: the primary as the given kind (typically
// KindCNN) and the fallback as the accelerometer-only KindCNNAccel.
// The fallback trains on the full dataset too — its branch simply
// never reads the gyro or Euler columns, so it learns exactly the
// signal it will still have when those channels die.
func TrainCascade(d *Dataset, kind Kind, cfg Config) (*CascadeDetector, error) {
	primary, err := Train(d, kind, cfg)
	if err != nil {
		return nil, err
	}
	fallback, err := Train(d, KindCNNAccel, cfg)
	if err != nil {
		return nil, err
	}
	return NewCascadeDetector(primary, fallback)
}

// Primary exposes the tier-0 detector.
func (cd *CascadeDetector) Primary() *Detector { return cd.primary }

// Fallback exposes the tier-1 detector.
func (cd *CascadeDetector) Fallback() *Detector { return cd.fallback }

// Stream instantiates the supervised real-time pipeline: tier 0 the
// primary, tier 1 the fallback, tier 2 the built-in threshold floor.
// Both models' inference costs are sized against the deployment device
// so the supervisor's cycle budget is enforced from construction.
func (cd *CascadeDetector) Stream() (*StreamCascade, error) {
	return cascadeStreamAt[float64](cd, cd.primary.model, cd.fallback.model)
}

// EvaluateRobustness is the cascade counterpart of
// Detector.EvaluateRobustness: the same fault-type × severity sweep
// over the same trials and injector seeding, but with the supervised
// cascade deciding. Comparing the two reports point for point shows
// what the cascade buys under each fault — the per-point TierEvals and
// TierTriggers show which tier did the work.
func (cd *CascadeDetector) EvaluateRobustness(d *Dataset, cfg RobustnessConfig) (*RobustnessReport, error) {
	if !cfg.Precision.Valid() {
		return nil, fmt.Errorf("falldet: robustness sweep at unknown %s", cfg.Precision)
	}
	// Worker 0 reuses the members' own networks, the others score on
	// clones; see perWorker.
	if cfg.Precision == PrecisionF32 {
		return evalCascadeRobustnessAt[float32](cd, d, cfg)
	}
	return evalCascadeRobustnessAt[float64](cd, d, cfg)
}

// Bundle entry names: each entry is a complete falldet-detector
// envelope with its own SHA-256 digest.
const (
	bundlePrimaryEntry  = "primary"
	bundleFallbackEntry = "fallback"
)

// Save serialises both cascade members as one verified bundle: an
// outer artifact envelope whose digest covers the whole file, holding
// one complete detector envelope per member, each with its own
// SHA-256. Truncation or a single flipped bit anywhere — either
// model's weights included — fails the load.
func (cd *CascadeDetector) Save(w io.Writer) error {
	var primary, fallback bytes.Buffer
	if err := cd.primary.Save(&primary); err != nil {
		return fmt.Errorf("falldet: saving cascade primary: %w", err)
	}
	if err := cd.fallback.Save(&fallback); err != nil {
		return fmt.Errorf("falldet: saving cascade fallback: %w", err)
	}
	return artifact.WriteBundle(w, map[string][]byte{
		bundlePrimaryEntry:  primary.Bytes(),
		bundleFallbackEntry: fallback.Bytes(),
	})
}

// LoadCascade restores a cascade from a Save image. Both members'
// envelopes are digest-verified, decoded and bounds-checked, and the
// pair is re-validated (fallback kind, shared geometry) exactly as at
// construction — a corrupt or mismatched bundle yields an error, never
// a miswired cascade.
func LoadCascade(r io.Reader) (*CascadeDetector, error) {
	entries, err := artifact.ReadBundle(r)
	if err != nil {
		return nil, fmt.Errorf("falldet: %w", err)
	}
	img, ok := entries[bundlePrimaryEntry]
	if !ok {
		return nil, fmt.Errorf("falldet: bundle has no %q entry", bundlePrimaryEntry)
	}
	primary, err := LoadSaved(bytes.NewReader(img))
	if err != nil {
		return nil, fmt.Errorf("falldet: bundle primary: %w", err)
	}
	img, ok = entries[bundleFallbackEntry]
	if !ok {
		return nil, fmt.Errorf("falldet: bundle has no %q entry", bundleFallbackEntry)
	}
	fallback, err := LoadSaved(bytes.NewReader(img))
	if err != nil {
		return nil, fmt.Errorf("falldet: bundle fallback: %w", err)
	}
	return NewCascadeDetector(primary, fallback)
}
