package eval

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func randomWindow(T int, rng *rand.Rand) *tensor.Tensor {
	x := tensor.New(T, 9)
	d := x.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return x
}

// kfoldWith runs one small CNN cross-validation at the given fold and
// trainer worker counts, capturing the log.
func kfoldWith(t *testing.T, foldWorkers, trainWorkers int) (*Result, string) {
	t.Helper()
	d := smallDataset(t)
	var log bytes.Buffer
	res, err := RunKFold(d, model.KindCNN, PipelineConfig{
		Segment:     dataset.SegmentConfig{WindowMS: 200, Overlap: 0.5},
		K:           3,
		NVal:        1,
		MaxTrainNeg: 60,
		Train:       nn.TrainConfig{Epochs: 2, Patience: 2, BatchSize: 16, Workers: trainWorkers},
		Seed:        5,
		Log:         &log,
		Workers:     foldWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, log.String()
}

// TestRunKFoldParallelIdentical asserts the evaluation-tier contract:
// fanning folds (and the inner trainer) across workers changes neither
// the per-fold results nor the emitted log, byte for byte.
func TestRunKFoldParallelIdentical(t *testing.T) {
	serial, serialLog := kfoldWith(t, 1, 1)
	parallel, parallelLog := kfoldWith(t, 4, 2)
	if !reflect.DeepEqual(serial.Pooled, parallel.Pooled) {
		t.Errorf("pooled confusion diverged: serial %+v, parallel %+v", serial.Pooled, parallel.Pooled)
	}
	if len(serial.Folds) != len(parallel.Folds) {
		t.Fatalf("fold counts diverged: %d vs %d", len(serial.Folds), len(parallel.Folds))
	}
	for fi := range serial.Folds {
		s, p := &serial.Folds[fi], &parallel.Folds[fi]
		if s.Confusion != p.Confusion || s.Threshold != p.Threshold {
			t.Errorf("fold %d diverged: serial %+v thr=%v, parallel %+v thr=%v",
				fi, s.Confusion, s.Threshold, p.Confusion, p.Threshold)
		}
		for i := range s.Test {
			if s.Test[i].Score != p.Test[i].Score {
				t.Errorf("fold %d segment %d score diverged: %v vs %v",
					fi, i, s.Test[i].Score, p.Test[i].Score)
				break
			}
		}
	}
	if serialLog != parallelLog {
		t.Errorf("log output diverged:\nserial:\n%s\nparallel:\n%s", serialLog, parallelLog)
	}
}

// TestEvaluateRobustnessParallelIdentical asserts the sweep is
// condition-deterministic: four workers on independent pipeline
// replicas report exactly what one does.
func TestEvaluateRobustnessParallelIdentical(t *testing.T) {
	det, trials := robustFixture(t)
	serial := EvaluateRobustnessParallel([]*edge.Detector{det}, trials, nil, nil, 3)

	dets := make([]*edge.Detector, 4)
	for i := range dets {
		clf, err := model.NewThreshold(model.KindThresholdAcc)
		if err != nil {
			t.Fatal(err)
		}
		dets[i], err = edge.NewDetectorOf[float64](clf, edge.DetectorConfig{WindowMS: 200, Overlap: 0.75})
		if err != nil {
			t.Fatal(err)
		}
	}
	parallel := EvaluateRobustnessParallel(dets, trials, nil, nil, 3)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel sweep diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestNetModelCloneIndependent checks that clones used by parallel
// scoring share no state with the original.
func TestNetModelCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := model.New(model.KindCNN, model.Config{WindowSamples: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	x := randomWindow(20, rng)
	if got, want := c.Score(x), m.Score(x); got != want {
		t.Fatalf("clone scores %v, original %v", got, want)
	}
	// Perturb the original; the clone must not follow.
	m.Net.Params()[0].W.Data()[0] += 1
	if c.Score(x) != c.Clone().Score(x) {
		t.Error("clone rescored differently after cloning again")
	}
	if c.Score(x) == m.Score(x) {
		t.Error("clone tracked a weight change in the original")
	}
}
