package falldet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/model"
	"repro/internal/nn"
)

// v1Envelope reframes an envelope's decoded parts in the pre-dtype
// version-1 layout: magic | version=1 | kind | shape | payload | digest.
func v1Envelope(kind string, shape []int, payload []byte) []byte {
	le := binary.LittleEndian
	raw := []byte(artifact.Magic)
	raw = le.AppendUint32(raw, 1)
	raw = le.AppendUint16(raw, uint16(len(kind)))
	raw = append(raw, kind...)
	raw = le.AppendUint16(raw, uint16(len(shape)))
	for _, d := range shape {
		raw = le.AppendUint32(raw, uint32(d))
	}
	raw = le.AppendUint32(raw, uint32(len(payload)))
	raw = append(raw, payload...)
	sum := sha256.Sum256(raw)
	return append(raw, sum[:]...)
}

// legacyNetImage frames a network's weights as every pre-bump writer
// did: the gob payload of the "nn-float64-weights" kind (a frozen copy
// of its struct), in version-1 framing with no declared shape.
func legacyNetImage(t *testing.T, net *nn.Network) []byte {
	t.Helper()
	var s struct {
		Names   []string
		Weights [][]float64
	}
	for _, p := range net.Params() {
		s.Names = append(s.Names, p.Name)
		s.Weights = append(s.Weights, p.W.Data())
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&s); err != nil {
		t.Fatal(err)
	}
	return v1Envelope("nn-float64-weights", nil, payload.Bytes())
}

// TestPreBumpDetectorLoads proves forward compatibility at the
// deployment surface: a detector image written before the dtype field
// existed — version-1 framing on the outer envelope, and inside it the
// network as those builds wrote it, a gob payload in version-1 framing
// — still loads, as float64, with bit-identical weights and scores.
// Sampled truncations and bit flips of the legacy image must still
// fail with a structured error, never a misdecoded detector.
func TestPreBumpDetectorLoads(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short")
	}
	d := tinyData(t)
	cfg := tinyConfig()
	cfg.Epochs = 2
	det, err := Train(d, KindMLP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Rebuild the image as a pre-bump writer would have produced it:
	// the nested network as a legacy gob image, then the outer
	// detector envelope in version-1 framing.
	h, payload, err := artifact.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var s savedDetector
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		t.Fatal(err)
	}
	net := det.model.(*model.NetModel).Net
	s.Net = legacyNetImage(t, net)
	var repacked bytes.Buffer
	if err := gob.NewEncoder(&repacked).Encode(&s); err != nil {
		t.Fatal(err)
	}
	legacy := v1Envelope(h.Kind, h.Shape, repacked.Bytes())

	loaded, err := LoadSaved(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("pre-bump image rejected: %v", err)
	}
	want, got := net.Snapshot(), loaded.model.(*model.NetModel).Net.Snapshot()
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("pre-bump tensor %d weight %d: %x, want %x", i, j,
					math.Float64bits(got[i][j]), math.Float64bits(want[i][j]))
			}
		}
	}
	segs, _ := ExtractSegments(d, cfg)
	for i := 0; i < 20; i++ {
		if math.Float64bits(det.Score(segs[i].X)) != math.Float64bits(loaded.Score(segs[i].X)) {
			t.Fatal("pre-bump detector scores differ")
		}
	}

	// Chaos over the legacy image (sampled — the full product is the
	// artifact package's own exhaustive sweep).
	for n := 0; n < len(legacy); n += 37 {
		if _, err := LoadSaved(bytes.NewReader(legacy[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(legacy))
		}
	}
	for i := 0; i < len(legacy); i += 101 {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), legacy...)
			mut[i] ^= 1 << bit
			if _, err := LoadSaved(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", i, bit)
			}
		}
	}
}

// agreeTol bounds how far any aggregate decision metric may drift
// between the float32 deployment sweep and the float64 reference sweep.
// Both sweeps replay identical fault streams (same seeds), so the only
// source of divergence is a probability crossing the trigger threshold
// inside the single-precision rounding band.
const agreeTol = 0.1

func pointsAgree(t *testing.T, tag string, p64, p32 RobustnessPoint) {
	t.Helper()
	if p64.Fault != p32.Fault || p64.Severity != p32.Severity {
		t.Fatalf("%s: sweep points misaligned: f64 %s/%.2f vs f32 %s/%.2f",
			tag, p64.Fault, p64.Severity, p32.Fault, p32.Severity)
	}
	if p32.BadScores != 0 || p64.BadScores != 0 {
		t.Fatalf("%s %s/%.2f: non-finite scores (f64 %d, f32 %d)",
			tag, p64.Fault, p64.Severity, p64.BadScores, p32.BadScores)
	}
	// Health, quarantine and gap accounting run float64 at every
	// compiled width by design — they must match exactly.
	if p64.Quarantined != p32.Quarantined || p64.Missing != p32.Missing ||
		p64.Stuck != p32.Stuck || p64.Drift != p32.Drift {
		t.Fatalf("%s %s/%.2f: width-independent counters diverge:\n f64 %+v\n f32 %+v",
			tag, p64.Fault, p64.Severity, p64, p32)
	}
	if d := math.Abs(p64.Recall - p32.Recall); d > agreeTol {
		t.Fatalf("%s %s/%.2f: recall gap %.3f (f64 %.3f, f32 %.3f)",
			tag, p64.Fault, p64.Severity, d, p64.Recall, p32.Recall)
	}
	if d := math.Abs(p64.InTime - p32.InTime); d > agreeTol {
		t.Fatalf("%s %s/%.2f: in-time gap %.3f", tag, p64.Fault, p64.Severity, d)
	}
	if d := math.Abs(p64.FalseAlarmRate - p32.FalseAlarmRate); d > agreeTol {
		t.Fatalf("%s %s/%.2f: false-alarm-rate gap %.3f", tag, p64.Fault, p64.Severity, d)
	}
}

// TestPrecisionDecisionAgreement runs the full fault-type × severity
// robustness sweep twice — once per compiled width — and compares the
// reports point for point: exact equality on everything that runs
// float64 at both widths (health, quarantine, gap counters), agreement
// within agreeTol on every decision metric, zero non-finite scores at
// either width. This is the acceptance harness for the lowered
// deployment pipeline.
func TestPrecisionDecisionAgreement(t *testing.T) {
	d := tinyData(t)
	det := rawDetector(t, KindCNN, tinyConfig())
	base := RobustnessConfig{Seed: 11, Workers: 4}
	rep64, err := det.EvaluateRobustness(d, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg32 := base
	cfg32.Precision = PrecisionF32
	rep32, err := det.EvaluateRobustness(d, cfg32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep64.Points) != len(rep32.Points) || len(rep64.Points) == 0 {
		t.Fatalf("point counts differ: f64 %d, f32 %d", len(rep64.Points), len(rep32.Points))
	}
	pointsAgree(t, "clean", rep64.Clean, rep32.Clean)
	for i := range rep64.Points {
		pointsAgree(t, "fault", rep64.Points[i], rep32.Points[i])
	}
}

// TestCascadePrecisionDecisionAgreement is the supervised-cascade
// counterpart: the full sweep with tier accounting, again at both
// widths.
func TestCascadePrecisionDecisionAgreement(t *testing.T) {
	d := tinyData(t)
	cd := rawCascade(t, tinyConfig())
	base := RobustnessConfig{Seed: 11, Workers: 4}
	rep64, err := cd.EvaluateRobustness(d, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg32 := base
	cfg32.Precision = PrecisionF32
	rep32, err := cd.EvaluateRobustness(d, cfg32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep64.Points) != len(rep32.Points) || len(rep64.Points) == 0 {
		t.Fatalf("point counts differ: f64 %d, f32 %d", len(rep64.Points), len(rep32.Points))
	}
	pointsAgree(t, "cascade-clean", rep64.Clean, rep32.Clean)
	for i := range rep64.Points {
		pointsAgree(t, "cascade", rep64.Points[i], rep32.Points[i])
	}
}

// TestEvaluateRobustnessRejectsUnknownPrecision: a Precision that names
// no compiled width fails both sweeps up front, as serve.RunSoak
// fails a soak, instead of running the float64 sweep under a wrong
// label. The empty dataset keeps a regression cheap: it would return
// a report, not an error.
func TestEvaluateRobustnessRejectsUnknownPrecision(t *testing.T) {
	cfg := tinyConfig()
	det := rawDetector(t, KindCNN, cfg)
	cd := rawCascade(t, cfg)
	sweeps := []struct {
		name string
		run  func(*Dataset, RobustnessConfig) (*RobustnessReport, error)
	}{
		{"detector", det.EvaluateRobustness},
		{"cascade", cd.EvaluateRobustness},
	}
	for _, sw := range sweeps {
		for _, p := range []Precision{2, 7, 255} {
			rep, err := sw.run(&Dataset{}, RobustnessConfig{Seed: 1, Precision: p})
			if err == nil || rep != nil {
				t.Errorf("%s at %s: err %v, report returned %v; want an error and no report", sw.name, p, err, rep != nil)
				continue
			}
			if !strings.Contains(err.Error(), p.String()) {
				t.Errorf("%s at %s: error %q does not name the width", sw.name, p, err)
			}
		}
	}
}
