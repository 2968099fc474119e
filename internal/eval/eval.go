// Package eval orchestrates the paper's experimental protocol: the
// subject-independent 5-fold cross-validation (§III-C) over labelled
// segments, with fall-class augmentation, class weighting, output-bias
// initialisation and early stopping; segment-level metrics (Table III)
// and the event-level misclassification analysis (Table IV).
package eval

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/augment"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/par"
)

// PipelineConfig assembles one experiment's hyper-parameters.
type PipelineConfig struct {
	// Segment controls window size, overlap and labelling.
	Segment dataset.SegmentConfig
	// K is the fold count (paper: 5); NVal the validation subjects
	// per fold (paper: 4).
	K, NVal int
	// AugmentFactor is how many warped copies each positive training
	// segment spawns (paper applies time + window warping).
	AugmentFactor int
	// MaxTrainNeg, when positive, subsamples the negative training
	// segments to this count per fold. The test set is never touched.
	// This is a compute-scaling knob for CI-scale runs; class weights
	// are computed after subsampling, so the loss stays calibrated.
	MaxTrainNeg int
	// Train carries epochs/patience/batch (paper: 200/20).
	Train nn.TrainConfig
	// Threshold is the decision threshold (default 0.5).
	Threshold float64
	// TuneThreshold selects the decision threshold per fold on the
	// validation subjects by maximising F-beta (the paper configures
	// its model "to minimize false positives" rather than using the
	// raw 0.5 cut). Ignored when the fold has no validation segments.
	TuneThreshold bool
	// TuneBeta is the F-beta weighting for threshold tuning: 1 is
	// plain F1; values < 1 weight precision more (the paper's stated
	// preference — fewer useless airbag activations). Zero selects 1.
	TuneBeta float64
	// Seed drives every stochastic choice of the pipeline.
	Seed int64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Workers fans the cross-validation folds out across this many
	// goroutines (≤ 1 runs serially). Every fold's randomness derives
	// solely from Seed and the fold index and per-fold logs are
	// buffered and emitted in fold order, so results and output are
	// identical for any worker count. Inner data-parallel training is
	// configured separately via Train.Workers.
	Workers int

	// Ablation switches (experiment E9): disable the paper's
	// imbalance countermeasures one at a time.
	DisableClassWeights bool
	DisableBiasInit     bool
	DisableAugment      bool

	// Fitter, when non-nil, replaces the default per-fold model
	// construction and training — the hook behind the knowledge-
	// distillation experiment, where "fitting" means training a
	// teacher and distilling a student. It receives the fold's
	// training/validation examples (already augmented and weighted
	// per the other options) and returns the classifier to score the
	// fold's test set with. With Workers > 1 the hook runs from
	// multiple goroutines and must be safe to call concurrently.
	Fitter func(winSamples, pos, total int, train, val []nn.Example, tc nn.TrainConfig, rng *rand.Rand) (model.Classifier, error)
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.K == 0 {
		c.K = 5
	}
	if c.NVal == 0 {
		c.NVal = 4
	}
	if c.Threshold == 0 {
		c.Threshold = 0.5
	}
	return c
}

// ScoredSegment pairs a test segment with its model score and the
// fold's decision threshold.
type ScoredSegment struct {
	dataset.Segment
	Score float64
	// Threshold is the fold-specific decision threshold; 0 means the
	// caller should apply its own.
	Threshold float64
}

// FoldResult is one fold's outcome.
type FoldResult struct {
	Confusion nn.Confusion
	History   *nn.History
	Test      []ScoredSegment
	// Threshold is the decision threshold used for this fold (tuned
	// on validation data when TuneThreshold is set).
	Threshold float64
}

// Result aggregates a full cross-validation run of one model.
type Result struct {
	Model  string
	Window int // ms
	Folds  []FoldResult
	// Pooled merges all folds' confusion matrices (micro average).
	Pooled nn.Confusion
}

// AllScored concatenates every fold's scored test segments.
func (r *Result) AllScored() []ScoredSegment {
	var out []ScoredSegment
	for i := range r.Folds {
		out = append(out, r.Folds[i].Test...)
	}
	return out
}

func toExamples(segs []dataset.Segment) []nn.Example {
	out := make([]nn.Example, len(segs))
	for i := range segs {
		out[i] = nn.Example{X: segs[i].X, Y: segs[i].Y}
	}
	return out
}

// RunKFold executes the full protocol for one model family on an
// already standardised and filtered dataset.
func RunKFold(d *dataset.Dataset, kind model.Kind, cfg PipelineConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Segment.Validate(); err != nil {
		return nil, err
	}
	segs, err := d.ExtractAll(cfg.Segment)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("eval: no segments extracted")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	folds, err := dataset.KFoldSubjects(d.Subjects(), cfg.K, cfg.NVal, rng)
	if err != nil {
		return nil, err
	}

	res := &Result{Model: kind.String(), Window: cfg.Segment.WindowMS}
	res.Folds = make([]FoldResult, len(folds))
	errs := make([]error, len(folds))
	logs := make([]bytes.Buffer, len(folds))
	// Folds are independent given the split (each fold's rng is seeded
	// from Seed and the fold index alone), so they fan out across the
	// pool; fold fi's result lands in slot fi and its log lines in
	// buffer fi, making the run identical to a serial one.
	par.New(cfg.Workers).Run(len(folds), func(_, fi int) {
		var w io.Writer
		if cfg.Log != nil {
			w = &logs[fi]
		}
		res.Folds[fi], errs[fi] = runFold(kind, cfg, res, segs, &folds[fi], fi, len(folds), w)
	})
	for fi := range folds {
		if cfg.Log != nil {
			//fallvet:ignore checkedio best-effort progress sink; a broken log writer must not abort the sweep
			cfg.Log.Write(logs[fi].Bytes())
		}
		if errs[fi] != nil {
			return nil, errs[fi]
		}
	}
	for i := range res.Folds {
		res.Pooled.Merge(res.Folds[i].Confusion)
	}
	return res, nil
}

// runFold trains and scores one cross-validation fold. It touches only
// fold-local state: segs is read-only, the fold rng is derived from the
// seed and fold index, and progress lines go to the caller's buffer.
func runFold(kind model.Kind, cfg PipelineConfig, res *Result, segs []dataset.Segment,
	fold *dataset.Fold, fi, nFolds int, log io.Writer) (FoldResult, error) {
	trainSegs, valSegs, testSegs := fold.SplitSegments(segs)
	if len(trainSegs) == 0 || len(testSegs) == 0 {
		return FoldResult{}, fmt.Errorf("eval: fold %d has empty train or test", fi)
	}
	foldRng := rand.New(rand.NewSource(cfg.Seed + int64(1000*(fi+1))))

	train := toExamples(subsampleNegatives(trainSegs, cfg.MaxTrainNeg, foldRng))
	if !cfg.DisableAugment {
		train = augment.Positives(train, cfg.AugmentFactor, foldRng)
	}
	val := toExamples(valSegs)

	pos := 0
	for _, e := range train {
		pos += e.Y
	}
	biasPos, biasTotal := pos, len(train)
	if cfg.DisableBiasInit {
		biasPos, biasTotal = 0, 0
	}
	trainCfg := cfg.Train
	if cfg.DisableClassWeights {
		trainCfg.ClassWeights = [2]float64{1, 1}
	}
	var m model.Classifier
	var err error
	if cfg.Fitter != nil {
		m, err = cfg.Fitter(cfg.Segment.WindowSamples(), biasPos, biasTotal, train, val, trainCfg, foldRng)
		if err != nil {
			return FoldResult{}, err
		}
	} else {
		tm, err := model.NewTrainable(kind, model.Config{
			WindowSamples: cfg.Segment.WindowSamples(),
			PosCount:      biasPos,
			TotalCount:    biasTotal,
		}, foldRng)
		if err != nil {
			return FoldResult{}, err
		}
		if err := tm.Fit(train, val, trainCfg, foldRng); err != nil {
			return FoldResult{}, err
		}
		m = tm
	}

	thr := cfg.Threshold
	if cfg.TuneThreshold && len(val) > 0 {
		beta := cfg.TuneBeta
		if beta <= 0 {
			beta = 1
		}
		thr = tuneThreshold(m, val, beta)
	}
	fr := FoldResult{Threshold: thr}
	for i := range testSegs {
		sc := m.Score(testSegs[i].X)
		fr.Confusion.AddThreshold(sc, testSegs[i].Y, thr)
		fr.Test = append(fr.Test, ScoredSegment{Segment: testSegs[i], Score: sc, Threshold: thr})
	}
	if log != nil {
		fmt.Fprintf(log, "%s %dms fold %d/%d: %v thr=%.2f (train %d, test %d)\n",
			res.Model, res.Window, fi+1, nFolds, &fr.Confusion, thr, len(train), len(testSegs))
	}
	return fr, nil
}

// tuneThreshold sweeps the decision threshold over the validation set
// and returns the F-beta-maximising value, breaking ties toward higher
// thresholds (fewer false positives — the paper's stated preference).
func tuneThreshold(m model.Classifier, val []nn.Example, beta float64) float64 {
	scores := make([]float64, len(val))
	for i, e := range val {
		scores[i] = m.Score(e.X)
	}
	fbeta := func(c nn.Confusion) float64 {
		p, r := c.Precision(), c.Recall()
		b2 := beta * beta
		if p == 0 && r == 0 {
			return 0
		}
		return (1 + b2) * p * r / (b2*p + r)
	}
	best, bestScore := 0.5, -1.0
	for thr := 0.05; thr <= 0.951; thr += 0.025 {
		var c nn.Confusion
		for i, e := range val {
			c.AddThreshold(scores[i], e.Y, thr)
		}
		if s := fbeta(c); s >= bestScore {
			bestScore, best = s, thr
		}
	}
	return best
}

// subsampleNegatives keeps all positives and at most maxNeg random
// negatives (0 disables).
func subsampleNegatives(segs []dataset.Segment, maxNeg int, rng *rand.Rand) []dataset.Segment {
	if maxNeg <= 0 {
		return segs
	}
	var pos, neg []dataset.Segment
	for i := range segs {
		if segs[i].Y == 1 {
			pos = append(pos, segs[i])
		} else {
			neg = append(neg, segs[i])
		}
	}
	if len(neg) <= maxNeg {
		return segs
	}
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	out := append(pos, neg[:maxNeg]...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
