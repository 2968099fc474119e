package falldet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// Detector is a trained pre-impact fall detector ready for
// evaluation, quantization or streaming deployment.
type Detector struct {
	cfg   Config
	kind  Kind
	model model.Trainable
}

// Train fits a detector of the given family on the whole dataset,
// holding out ValSubjects subjects for early stopping. Use
// CrossValidate for unbiased metrics; Train is for producing the
// deployable artefact.
func Train(d *Dataset, kind Kind, cfg Config) (*Detector, error) {
	cfg = cfg.withDefaults()
	segCfg := dataset.SegmentConfig{WindowMS: cfg.WindowMS, Overlap: cfg.Overlap}
	if err := segCfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	subjects := d.Subjects()
	if len(subjects) <= cfg.ValSubjects {
		return nil, fmt.Errorf("falldet: %d subjects cannot spare %d for validation",
			len(subjects), cfg.ValSubjects)
	}
	rng.Shuffle(len(subjects), func(i, j int) { subjects[i], subjects[j] = subjects[j], subjects[i] })
	valSet := map[int]bool{}
	for _, s := range subjects[:cfg.ValSubjects] {
		valSet[s] = true
	}

	segs, err := d.ExtractAll(segCfg)
	if err != nil {
		return nil, err
	}
	var train, val []nn.Example
	pos := 0
	for i := range segs {
		e := nn.Example{X: segs[i].X, Y: segs[i].Y}
		if valSet[segs[i].Subject] {
			val = append(val, e)
		} else {
			train = append(train, e)
			pos += e.Y
		}
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("falldet: no training segments")
	}

	m, err := model.NewTrainable(kind, model.Config{
		WindowSamples: segCfg.WindowSamples(),
		PosCount:      pos,
		TotalCount:    len(train),
	}, rng)
	if err != nil {
		return nil, err
	}
	tc := nn.TrainConfig{Epochs: cfg.Epochs, Patience: cfg.Patience, BatchSize: 32, Log: cfg.Log,
		Workers: cfg.Workers}
	if err := m.Fit(train, val, tc, rng); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, kind: kind, model: m}, nil
}

// Kind returns the detector's model family.
func (det *Detector) Kind() Kind { return det.kind }

// Score classifies one [T × 9] window.
func (det *Detector) Score(x *tensor.Tensor) float64 { return det.model.Score(x) }

// Evaluate scores a labelled segment set.
func (det *Detector) Evaluate(segs []Segment) nn.Confusion {
	var c nn.Confusion
	for i := range segs {
		c.AddThreshold(det.model.Score(segs[i].X), segs[i].Y, det.cfg.Threshold)
	}
	return c
}

// Stream wraps the detector in the real-time on-device pipeline.
func (det *Detector) Stream() (*StreamDetector, error) {
	return edge.NewDetectorOf[float64](det.model, det.edgeConfig())
}

// Deployment is the §IV-C on-edge report for a quantized detector.
type Deployment struct {
	Q *quant.QNetwork
	// FlashKiB and RAMKiB are the quantized footprints.
	FlashKiB, RAMKiB float64
	// InferenceTime and FusionTime are per-segment costs on Target.
	InferenceTime time.Duration
	FusionTime    time.Duration
	// FitsFlash / FitsRAM report against the target's budget.
	FitsFlash, FitsRAM bool
	Target             Device
}

// Quantize converts the detector's network to int8 using the given
// calibration windows and sizes it against the target device. Only
// the deployable families (CNN, MLP) are supported, matching the
// paper's deployment.
func (det *Detector) Quantize(calibration []*tensor.Tensor, target Device) (*Deployment, error) {
	nm, ok := det.model.(*model.NetModel)
	if !ok {
		return nil, fmt.Errorf("falldet: %s is not a quantizable network model", det.model.Name())
	}
	cal, err := quant.Calibrate(nm.Net, calibration)
	if err != nil {
		return nil, err
	}
	winSamples := det.cfg.WindowMS * dataset.SampleRate / 1000
	qn, err := quant.Build(nm.Net, cal, []int{winSamples, 9})
	if err != nil {
		return nil, err
	}
	cost, err := edge.ModelCost(nm.Net, []int{winSamples, 9})
	if err != nil {
		return nil, err
	}
	return &Deployment{
		Q:             qn,
		FlashKiB:      float64(qn.FlashBytes()) / 1024,
		RAMKiB:        float64(qn.RAMBytes()) / 1024,
		InferenceTime: target.InferenceTime(cost),
		FusionTime:    target.FusionTime(winSamples),
		FitsFlash:     target.FitsFlash(qn.FlashBytes()),
		FitsRAM:       target.FitsRAM(qn.RAMBytes()),
		Target:        target,
	}, nil
}

// DetectorArtifactKind tags saved detectors in the verified artifact
// envelope (see internal/artifact): magic, format version, kind string,
// input shape and a SHA-256 digest over the whole image.
const DetectorArtifactKind = "falldet-detector"

// savedDetector is the gob payload inside the envelope: the model
// family and streaming configuration ride alongside the network image,
// so a loaded detector reconstructs the exact deployment — window,
// overlap, decision threshold — without the caller re-supplying them.
type savedDetector struct {
	Kind      int
	WindowMS  int
	Overlap   float64
	Threshold float64
	Net       []byte
}

func (s *savedDetector) validate() error {
	if s.Kind < 0 || s.Kind > int(KindCNNAccel) {
		return fmt.Errorf("falldet: saved detector has unknown model kind %d", s.Kind)
	}
	if s.WindowMS <= 0 || s.WindowMS > 60_000 {
		return fmt.Errorf("falldet: saved window of %d ms outside (0, 60000]", s.WindowMS)
	}
	if s.Overlap != s.Overlap || s.Overlap < 0 || s.Overlap >= 1 {
		return fmt.Errorf("falldet: saved overlap %g outside [0, 1)", s.Overlap)
	}
	if s.Threshold != s.Threshold || s.Threshold < 0 || s.Threshold > 1 {
		return fmt.Errorf("falldet: saved threshold %g outside [0, 1]", s.Threshold)
	}
	if len(s.Net) == 0 {
		return fmt.Errorf("falldet: saved detector has no network image")
	}
	return nil
}

// Save serialises a network-backed detector — weights plus the model
// family and streaming configuration — as a verified artifact. The
// image round-trips through LoadSaved with no out-of-band knowledge.
func (det *Detector) Save(w io.Writer) error {
	nm, ok := det.model.(*model.NetModel)
	if !ok {
		return fmt.Errorf("falldet: %s has no weights to save", det.model.Name())
	}
	var net bytes.Buffer
	if err := nm.Net.Save(&net); err != nil {
		return err
	}
	s := savedDetector{
		Kind:      int(det.kind),
		WindowMS:  det.cfg.WindowMS,
		Overlap:   det.cfg.Overlap,
		Threshold: det.cfg.Threshold,
		Net:       net.Bytes(),
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&s); err != nil {
		return fmt.Errorf("falldet: encoding detector: %w", err)
	}
	winSamples := det.cfg.WindowMS * dataset.SampleRate / 1000
	return artifact.Write(w, DetectorArtifactKind, []int{winSamples, 9}, payload.Bytes())
}

// LoadSaved restores a detector from a Save image. The envelope's
// digest, version and kind are verified before the payload is decoded,
// and the recorded configuration is bounds-checked, so a corrupt or
// mislabelled image yields an error, never a misconfigured detector.
func LoadSaved(r io.Reader) (*Detector, error) {
	h, payload, err := artifact.Read(r)
	if err != nil {
		return nil, fmt.Errorf("falldet: %w", err)
	}
	if err := artifact.CheckKind(h, DetectorArtifactKind); err != nil {
		return nil, fmt.Errorf("falldet: %w", err)
	}
	var s savedDetector
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, fmt.Errorf("falldet: decoding detector: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	winSamples := s.WindowMS * dataset.SampleRate / 1000
	if len(h.Shape) != 2 || h.Shape[0] != winSamples || h.Shape[1] != 9 {
		return nil, fmt.Errorf("falldet: envelope shape %v disagrees with a %d ms window", h.Shape, s.WindowMS)
	}
	cfg := Config{WindowMS: s.WindowMS, Overlap: s.Overlap}.withDefaults()
	cfg.Threshold = s.Threshold
	rng := rand.New(rand.NewSource(cfg.Seed))
	m, err := model.NewTrainable(Kind(s.Kind), model.Config{WindowSamples: winSamples}, rng)
	if err != nil {
		return nil, err
	}
	nm, ok := m.(*model.NetModel)
	if !ok {
		return nil, fmt.Errorf("falldet: %v cannot be loaded from weights", Kind(s.Kind))
	}
	if err := nm.Net.Load(bytes.NewReader(s.Net)); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, kind: Kind(s.Kind), model: m}, nil
}

// Load restores a detector and validates it against the caller's
// expectations: the saved model family must be kind, and the saved
// window length — the one geometry the network's input shape is baked
// around — must match cfg (after defaulting). Runtime knobs the image
// does not constrain are taken from cfg: the streaming overlap (a
// deployment density choice, not model geometry) and, when
// cfg.Threshold is non-zero, the decision threshold; pass
// cfg.Threshold == 0 to keep the saved threshold.
func Load(r io.Reader, kind Kind, cfg Config) (*Detector, error) {
	det, err := LoadSaved(r)
	if err != nil {
		return nil, err
	}
	if det.kind != kind {
		return nil, fmt.Errorf("falldet: image holds a %v, caller expected %v", det.kind, kind)
	}
	want := cfg.withDefaults()
	if want.WindowMS != det.cfg.WindowMS {
		return nil, fmt.Errorf("falldet: image trained on %d ms windows, caller expected %d ms",
			det.cfg.WindowMS, want.WindowMS)
	}
	if cfg.Threshold != 0 {
		det.cfg.Threshold = want.Threshold
	}
	det.cfg.Overlap = want.Overlap
	det.cfg.Epochs, det.cfg.Patience = want.Epochs, want.Patience
	det.cfg.Seed, det.cfg.Log = want.Seed, want.Log
	return det, nil
}

// Session re-exports the continuous-wear stream type.
type Session = synth.Session

// SessionConfig re-exports its configuration.
type SessionConfig = synth.SessionConfig

// SessionOutcome re-exports the continuous-wear evaluation summary.
type SessionOutcome = eval.SessionOutcome

// AirbagConfig re-exports the firing-policy configuration.
type AirbagConfig = edge.AirbagConfig

// GenerateSession synthesises one continuous session for subject id
// (drawn from the worksite cohort statistics).
func GenerateSession(subjectID int, cfg SessionConfig, seed int64) (*Session, error) {
	rng := rand.New(rand.NewSource(seed))
	subj := synth.NewSubject(subjectID, rng)
	return synth.GenerateSession(subj, cfg, rng)
}

// EvaluateSession replays a session through the detector's streaming
// pipeline under the given airbag firing policy, producing the
// deployment metrics (false activations per hour, lead times).
func (det *Detector) EvaluateSession(s *Session, bag AirbagConfig) (SessionOutcome, error) {
	stream, err := det.Stream()
	if err != nil {
		return SessionOutcome{}, err
	}
	return eval.EvaluateSession(stream, edge.NewAirbag(bag), s), nil
}

// ExtractSegments exposes the labelled segmentation used everywhere.
func ExtractSegments(d *Dataset, cfg Config) ([]Segment, error) {
	cfg = cfg.withDefaults()
	return d.ExtractAll(dataset.SegmentConfig{WindowMS: cfg.WindowMS, Overlap: cfg.Overlap})
}

// CalibrationWindows pulls n segment tensors for quantization
// calibration, deterministically.
func CalibrationWindows(segs []Segment, n int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	ix := rng.Perm(len(segs))
	if n > len(ix) {
		n = len(ix)
	}
	out := make([]*tensor.Tensor, 0, n)
	for _, i := range ix[:n] {
		out = append(out, segs[i].X)
	}
	return out
}
