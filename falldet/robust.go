package falldet

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/fault"
)

// Fault-injection surface, re-exported so robustness studies can stay
// on this package.
type (
	// FaultInjector corrupts a sample stream deterministically.
	FaultInjector = fault.Injector
	// FaultKind selects one fault model for severity-swept evaluation.
	FaultKind = fault.Kind
	// RobustnessPoint is one fault condition's streaming metrics.
	RobustnessPoint = eval.RobustnessPoint
	// RobustnessReport is a fault-type × severity sweep vs clean.
	RobustnessReport = eval.RobustnessReport
)

// The fault taxonomy (see internal/fault for the physical models).
const (
	FaultDropout    = fault.KindDropout
	FaultSaturation = fault.KindSaturation
	FaultNoise      = fault.KindNoise
	FaultDrift      = fault.KindDrift
	FaultStuck      = fault.KindStuck
	FaultNaNBurst   = fault.KindNaNBurst
	FaultJitter     = fault.KindJitter
	FaultGyroNaN    = fault.KindGyroNaN
	FaultGyroStuck  = fault.KindGyroStuck
)

// FaultKinds lists the whole taxonomy in sweep order.
func FaultKinds() []FaultKind { return fault.Kinds() }

// NewFault builds an injector of the given kind at a severity in
// [0, 1]; see fault.New for the severity → physical-parameter mapping.
func NewFault(kind FaultKind, severity float64, seed int64) FaultInjector {
	return fault.New(kind, severity, seed)
}

// RobustnessConfig shapes a robustness sweep.
type RobustnessConfig struct {
	// Kinds restricts the fault taxonomy (nil = all kinds).
	Kinds []FaultKind
	// Severities are the per-kind severity levels in [0, 1]
	// (nil = {0.1, 0.25, 0.5}).
	Severities []float64
	// Seed drives the fault randomness.
	Seed int64
	// Workers fans the fault conditions out across this many streaming
	// pipelines (≤ 1 runs serially). Network models are cloned per
	// worker — the streaming pipeline and the network's activation
	// scratch are single-goroutine — so the report is identical for
	// any worker count.
	Workers int
	// Precision selects the compiled scalar width of the sweep's
	// streaming pipelines. The zero value is PrecisionF64, the
	// reference width; PrecisionF32 sweeps the lowered deployment
	// pipelines instead (the decision-agreement harness compares the
	// two reports point for point).
	Precision Precision
}

// EvaluateRobustness replays every trial of the dataset through the
// detector's streaming pipeline under each fault condition and
// reports the degradation relative to the clean baseline: recall,
// in-time rate, mean lead time and false alarms per hour of ADL
// stream. The detector's input hardening is active throughout, so a
// passing sweep also certifies zero NaN probabilities under NaN-burst
// and dropout faults.
func (det *Detector) EvaluateRobustness(d *Dataset, cfg RobustnessConfig) (*RobustnessReport, error) {
	if !cfg.Precision.Valid() {
		return nil, fmt.Errorf("falldet: robustness sweep at unknown %s", cfg.Precision)
	}
	// Worker 0 reuses the detector's own network, the others score on
	// clones; see perWorker.
	if cfg.Precision == PrecisionF32 {
		return evalRobustnessAt[float32](det, d, cfg)
	}
	return evalRobustnessAt[float64](det, d, cfg)
}
