// Package model defines the paper's proposed lightweight three-branch
// CNN and every comparison model of the evaluation: the MLP, LSTM and
// ConvLSTM2D deep baselines of Table III and the threshold-algorithm
// baselines of the related work (Table I context). All models share
// the Classifier interface so the evaluation harness treats them
// uniformly.
package model

import (
	"fmt"
	"math/rand"

	"repro/internal/imu"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Classifier scores one [T × 9] window with a falling probability.
type Classifier interface {
	Name() string
	Score(x *tensor.Tensor) float64
}

// Trainable is a classifier that learns from labelled segments.
type Trainable interface {
	Classifier
	Fit(train, val []nn.Example, cfg nn.TrainConfig, rng *rand.Rand) error
}

// Kind selects one of the evaluated model families.
type Kind int

// The model families of Table III plus the threshold baselines.
const (
	KindCNN Kind = iota
	KindMLP
	KindLSTM
	KindConvLSTM
	KindThresholdAcc  // de Sousa et al. 2021-style: |a| + vertical velocity
	KindThresholdGyro // Jung et al. 2020-style: |a| + angular rate
	// KindCNNBiGRU reproduces the strongest Table I reference (Kiran
	// et al. 2024): a convolutional front end feeding a bidirectional
	// GRU. Accurate but too heavy for the paper's deployment target.
	KindCNNBiGRU
	// KindDistilled is the PreFallKD-style student (Chi et al. 2023):
	// a halved CNN trained with knowledge distillation from a full
	// CNN teacher (see Distill).
	KindDistilled
	// KindCNNAccel is the accelerometer-branch-only fallback: the
	// proposed CNN with the gyro and Euler branches removed. It reads
	// the same [T × 9] window but only routes the accelerometer columns
	// through its single branch, so a detector cascade can keep a
	// trained model in play when the gyroscope (and hence the fused
	// attitude) is quarantined or stuck.
	KindCNNAccel
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCNN:
		return "CNN (Proposed)"
	case KindMLP:
		return "MLP"
	case KindLSTM:
		return "LSTM"
	case KindConvLSTM:
		return "ConvLSTM2D"
	case KindThresholdAcc:
		return "Threshold (acc+vel)"
	case KindThresholdGyro:
		return "Threshold (acc+gyro)"
	case KindCNNBiGRU:
		return "CNN-BiGRU"
	case KindDistilled:
		return "Distilled CNN (KD)"
	case KindCNNAccel:
		return "CNN (accel-only fallback)"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// DeepKinds are the four Table III families.
func DeepKinds() []Kind { return []Kind{KindMLP, KindLSTM, KindConvLSTM, KindCNN} }

// Config sizes a model for a given window.
type Config struct {
	// WindowSamples is T, the rows of the input matrix.
	WindowSamples int
	// PosCount/TotalCount, when set, initialise the output bias to
	// the class prior (paper equations 1–2).
	PosCount, TotalCount int
}

// CNNFilters and friends fix the architecture hyper-parameters; they
// are exported so the quantization and edge-cost analyses can reason
// about them.
const (
	CNNFilters   = 16
	CNNKernel    = 5
	CNNPool      = 2
	CNNDense1    = 64
	CNNDense2    = 32
	LSTMHidden   = 32
	LSTMDense    = 16
	ConvLSTMFilt = 8
	ConvLSTMKern = 3
	MLPDense1    = 64
	MLPDense2    = 32
	BiGRUHidden  = 24
	// Distilled-student widths: roughly half the teacher CNN.
	KDFilters = 8
	KDDense1  = 32
	KDDense2  = 16
)

// NetModel wraps an nn.Network as a Trainable classifier.
type NetModel struct {
	kind Kind
	Net  *nn.Network
	cfg  Config
}

// NewTrainable builds a fresh model of any kind: the threshold kinds
// through NewThreshold, every network kind through New.
func NewTrainable(kind Kind, cfg Config, rng *rand.Rand) (Trainable, error) {
	if kind == KindThresholdAcc || kind == KindThresholdGyro {
		return NewThreshold(kind)
	}
	return New(kind, cfg, rng)
}

// New builds a fresh model of the given kind. Threshold kinds are
// constructed by NewThreshold instead.
func New(kind Kind, cfg Config, rng *rand.Rand) (*NetModel, error) {
	if cfg.WindowSamples < CNNKernel {
		return nil, fmt.Errorf("model: window of %d samples too short", cfg.WindowSamples)
	}
	T := cfg.WindowSamples
	var net *nn.Network
	switch kind {
	case KindCNN:
		net = buildCNN(T, rng)
	case KindMLP:
		net = nn.NewNetwork(
			nn.NewFlatten(),
			nn.NewDense(T*imu.NumChannels, MLPDense1, rng),
			nn.NewReLU(),
			nn.NewDense(MLPDense1, MLPDense2, rng),
			nn.NewReLU(),
			nn.NewDense(MLPDense2, 1, rng),
			nn.NewSigmoid(),
		)
	case KindLSTM:
		net = nn.NewNetwork(
			nn.NewLSTM(imu.NumChannels, LSTMHidden, rng),
			nn.NewDense(LSTMHidden, LSTMDense, rng),
			nn.NewReLU(),
			nn.NewDense(LSTMDense, 1, rng),
			nn.NewSigmoid(),
		)
	case KindConvLSTM:
		net = nn.NewNetwork(
			nn.NewConvLSTM(imu.NumChannels, ConvLSTMFilt, ConvLSTMKern, rng),
			nn.NewDense(imu.NumChannels*ConvLSTMFilt, CNNDense2, rng),
			nn.NewReLU(),
			nn.NewDense(CNNDense2, 1, rng),
			nn.NewSigmoid(),
		)
	case KindCNNBiGRU:
		net = nn.NewNetwork(
			nn.NewBiGRU(imu.NumChannels, BiGRUHidden, rng),
			nn.NewDense(2*BiGRUHidden, CNNDense2, rng),
			nn.NewReLU(),
			nn.NewDense(CNNDense2, 1, rng),
			nn.NewSigmoid(),
		)
	case KindDistilled:
		net = buildDistilledCNN(T, rng)
	case KindCNNAccel:
		net = buildAccelCNN(T, rng)
	case KindThresholdAcc, KindThresholdGyro:
		return nil, fmt.Errorf("model: %v is built by NewThreshold, not New", kind)
	default:
		return nil, fmt.Errorf("model: %v is not a network model", kind)
	}
	m := &NetModel{kind: kind, Net: net, cfg: cfg}
	if cfg.PosCount > 0 && cfg.TotalCount > cfg.PosCount {
		m.SetOutputBias(cfg.PosCount, cfg.TotalCount)
	}
	return m, nil
}

// buildCNN assembles the paper's architecture (§III-B): the [T × 9]
// input splits into three [T × 3] motion-feature matrices
// (accelerometer, gyroscope, Euler angles); each passes through a
// convolutional layer and a max-pooling layer; the concatenated
// branch outputs feed Dense(64, ReLU) → Dense(32, ReLU) → Dense(1,
// sigmoid).
func buildCNN(T int, rng *rand.Rand) *nn.Network {
	branch := func() []nn.Layer {
		return []nn.Layer{
			nn.NewConv1D(3, CNNFilters, CNNKernel, rng),
			nn.NewReLU(),
			nn.NewMaxPool1D(CNNPool),
		}
	}
	convOut := T - CNNKernel + 1
	poolOut := (convOut + CNNPool - 1) / CNNPool
	concat := 3 * poolOut * CNNFilters
	return nn.NewNetwork(
		nn.NewBranch(
			[][2]int{{imu.AccX, imu.AccZ + 1}, {imu.GyroX, imu.GyroZ + 1}, {imu.EulerPitch, imu.EulerYaw + 1}},
			[][]nn.Layer{branch(), branch(), branch()},
		),
		nn.NewDense(concat, CNNDense1, rng),
		nn.NewReLU(),
		nn.NewDense(CNNDense1, CNNDense2, rng),
		nn.NewReLU(),
		nn.NewDense(CNNDense2, 1, rng),
		nn.NewSigmoid(),
	)
}

// buildAccelCNN assembles the cascade's tier-1 fallback: the proposed
// architecture cut down to its accelerometer branch. The input is
// still the full [T × 9] window — the branch layer slices out columns
// AccX..AccZ — so the fallback scores the exact tensor the streaming
// ring buffer already assembles, and the dense head keeps the paper's
// 64→32→1 shape (a third of the concatenated features, roughly a
// third of the inference cycles).
func buildAccelCNN(T int, rng *rand.Rand) *nn.Network {
	convOut := T - CNNKernel + 1
	poolOut := (convOut + CNNPool - 1) / CNNPool
	concat := poolOut * CNNFilters
	return nn.NewNetwork(
		nn.NewBranch(
			[][2]int{{imu.AccX, imu.AccZ + 1}},
			[][]nn.Layer{{
				nn.NewConv1D(3, CNNFilters, CNNKernel, rng),
				nn.NewReLU(),
				nn.NewMaxPool1D(CNNPool),
			}},
		),
		nn.NewDense(concat, CNNDense1, rng),
		nn.NewReLU(),
		nn.NewDense(CNNDense1, CNNDense2, rng),
		nn.NewReLU(),
		nn.NewDense(CNNDense2, 1, rng),
		nn.NewSigmoid(),
	)
}

// Name implements Classifier.
func (m *NetModel) Name() string { return m.kind.String() }

// Kind returns the model family.
func (m *NetModel) Kind() Kind { return m.kind }

// Score implements Classifier.
//
//fallvet:hotpath
func (m *NetModel) Score(x *tensor.Tensor) float64 { return m.Net.Predict(x) }

// Fit implements Trainable. With cfg.Workers > 1 the trainer shards
// each mini-batch across per-worker replicas built by Replicate;
// results are bit-identical to serial training.
func (m *NetModel) Fit(train, val []nn.Example, cfg nn.TrainConfig, rng *rand.Rand) error {
	tr := nn.NewTrainer(m.Net, nn.NewAdam(1e-3), cfg, rng)
	tr.Replicate = m.Replicate
	_, err := tr.Fit(train, val)
	return err
}

// Replicate builds a structurally identical network for a data-parallel
// training or evaluation worker. The replica's random initialisation is
// irrelevant: the trainer overwrites replica weights from the master on
// every sync.
func (m *NetModel) Replicate() *nn.Network {
	r, err := New(m.kind, m.cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		// New succeeded for this exact (kind, cfg) when m was built.
		panic(fmt.Sprintf("model: replicating %v: %v", m.kind, err))
	}
	return r.Net
}

// Clone returns an independent model with identical weights. A
// Network's layer scratch makes it single-goroutine by contract, so
// concurrent scoring (parallel folds, robustness sweeps) gives each
// goroutine its own clone.
func (m *NetModel) Clone() *NetModel {
	c := &NetModel{kind: m.kind, Net: m.Replicate(), cfg: m.cfg}
	c.Net.Restore(m.Net.Snapshot())
	return c
}

// SetOutputBias applies the paper's output-bias initialisation
// (equations 1–2) to the final dense layer.
func (m *NetModel) SetOutputBias(pos, total int) {
	b := nn.InitialBias(pos, total)
	// The output dense layer is the one before the closing sigmoid.
	for i := len(m.Net.Layers) - 1; i >= 0; i-- {
		if d, ok := m.Net.Layers[i].(*nn.Dense); ok {
			d.Bias.W.Data()[0] = b
			return
		}
	}
}
