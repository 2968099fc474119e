package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/artifact"
	"repro/internal/tensor"
)

// Network is a sequential stack of layers ending, for the binary
// models in this repository, in a 1-unit sigmoid.
//
// Layers must not be appended or replaced after the first call to
// Params/ZeroGrad — the parameter list is cached so the training hot
// loop does not allocate it per batch. A Network (its layers hold
// reusable scratch buffers) must not be used from multiple goroutines;
// the trainer gives each worker its own replica.
type Network struct {
	Layers []Layer

	params []*Param // cached by Params; Layers is fixed after first use
}

// NewNetwork builds a sequential network.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// Forward runs a full forward pass.
//
//fallvet:hotpath
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs a full backward pass from the output gradient.
//
//fallvet:hotpath
func (n *Network) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return grad
}

// Predict returns the scalar output (fall probability) for one window.
// Steady-state calls are allocation-free: every layer writes into its
// own reusable scratch buffer.
//
//fallvet:hotpath
func (n *Network) Predict(x *tensor.Tensor) float64 {
	out := n.Forward(x, false)
	return out.Data()[0]
}

// Params returns all learnable parameters. The slice is cached (and
// returned by reference) so hot loops can call it freely; callers must
// not mutate it.
func (n *Network) Params() []*Param {
	if n.params == nil {
		for _, l := range n.Layers {
			n.params = append(n.params, l.Params()...)
		}
	}
	return n.params
}

// ZeroGrad clears all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of learnable scalars.
func (n *Network) ParamCount() int {
	c := 0
	for _, p := range n.Params() {
		c += p.W.Len()
	}
	return c
}

// Summary renders a human-readable architecture description.
func (n *Network) Summary(inShape []int) string {
	var b strings.Builder
	shape := inShape
	fmt.Fprintf(&b, "input %v\n", shape)
	for _, l := range n.Layers {
		out, err := l.OutShape(shape)
		if err != nil {
			fmt.Fprintf(&b, "%-28s <shape error: %v>\n", l.Name(), err)
			return b.String()
		}
		params := 0
		for _, p := range l.Params() {
			params += p.W.Len()
		}
		fmt.Fprintf(&b, "%-28s -> %-12v params=%d\n", l.Name(), out, params)
		shape = out
	}
	fmt.Fprintf(&b, "total params: %d\n", n.ParamCount())
	return b.String()
}

// Snapshot copies all weights (for early-stopping restore).
func (n *Network) Snapshot() [][]float64 {
	ps := n.Params()
	snap := make([][]float64, len(ps))
	for i, p := range ps {
		snap[i] = append([]float64(nil), p.W.Data()...)
	}
	return snap
}

// Restore loads weights captured by Snapshot.
func (n *Network) Restore(snap [][]float64) {
	ps := n.Params()
	if len(snap) != len(ps) {
		panic(fmt.Sprintf("nn: snapshot has %d tensors, network has %d", len(snap), len(ps)))
	}
	for i, p := range ps {
		if len(snap[i]) != p.W.Len() {
			panic("nn: snapshot tensor size mismatch")
		}
		copy(p.W.Data(), snap[i])
	}
}

// NetworkArtifactKind tags float-weight images in the artifact
// envelope. The payload is weights only, keyed by order: the
// architecture itself is code, so loading requires an identically
// constructed network. It is laid out with the state codec of package
// artifact, every integer and value a little-endian uint64:
//
//	tensorCount | per tensor: nameLen | name | valueCount | value bits...
//
// The envelope (magic, version, kind, SHA-256) is verified before a
// payload byte is read, so a truncated or bit-flipped file never
// reaches the decoder.
const NetworkArtifactKind = "nn-float64-weights-le"

// legacyNetworkArtifactKind tags the images earlier builds wrote: the
// same weights as a gob-encoded savedNet. Load still reads them, since
// networks, detectors and bundles saved by those builds stay on disk;
// Save never writes them.
const legacyNetworkArtifactKind = "nn-float64-weights"

// Save serialises the network's weights in the verified artifact
// envelope.
func (n *Network) Save(w io.Writer) error {
	ps := n.Params()
	size := 8
	for _, p := range ps {
		size += 16 + len(p.Name) + 8*p.W.Len()
	}
	payload := artifact.AppendInt(make([]byte, 0, size), len(ps))
	for _, p := range ps {
		payload = appendTensor(payload, p.Name, p.W.Data())
	}
	return artifact.Write(w, NetworkArtifactKind, nil, payload)
}

// appendTensor appends one tensor of the flat weight layout.
func appendTensor(dst []byte, name string, vals []float64) []byte {
	dst = artifact.AppendInt(dst, len(name))
	dst = append(dst, name...)
	dst = artifact.AppendInt(dst, len(vals))
	for _, v := range vals {
		dst = artifact.AppendFloat(dst, v)
	}
	return dst
}

// Load restores weights saved by Save into an identically shaped
// network. The envelope's digest and kind are verified first, then
// every tensor's name, size and finiteness, and the payload must be
// consumed exactly — a corrupt image fails loudly, it never loads, and
// a failed Load leaves every weight as it was. Images of the legacy
// gob kind are read too.
func (n *Network) Load(r io.Reader) error {
	h, payload, err := artifact.Read(r)
	if err != nil {
		return fmt.Errorf("nn: %w", err)
	}
	switch h.Kind {
	case NetworkArtifactKind:
	case legacyNetworkArtifactKind:
		if payload, err = legacyPayload(payload); err != nil {
			return err
		}
	default:
		return fmt.Errorf("nn: %w", artifact.CheckKind(h, NetworkArtifactKind))
	}
	ps := n.Params()
	if err := readWeights(payload, ps, false); err != nil {
		return err
	}
	// All tensors validated; only now mutate the live network.
	return readWeights(payload, ps, true)
}

// readWeights walks a flat weight payload against the network's
// parameters: the tensor count, each tensor's name and value count
// must match, and the payload must be consumed exactly. Without
// commit it also checks that every value is finite and writes
// nothing; with commit it copies the values into the parameters, so
// it must only commit a payload that has validated. It decodes in
// place: nothing it allocates is sized by the payload.
func readWeights(payload []byte, ps []*Param, commit bool) error {
	r := artifact.NewStateReader(payload)
	if c := r.Int(); r.Err() == nil && c != len(ps) {
		return fmt.Errorf("nn: saved network has %d tensors, want %d", c, len(ps))
	}
	for i, p := range ps {
		name := r.Bytes(r.Int())
		if r.Err() == nil && string(name) != p.Name {
			// The saved name is input: quote at most 64 bytes of it.
			return fmt.Errorf("nn: saved tensor %d is %.64q, want %q", i, name, p.Name)
		}
		dst := p.W.Data()
		if c := r.Int(); r.Err() == nil && c != len(dst) {
			return fmt.Errorf("nn: saved tensor %q has %d values, want %d", p.Name, c, len(dst))
		}
		raw := r.Bytes(8 * len(dst))
		if r.Err() != nil {
			break
		}
		if commit {
			for j := range dst {
				dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
			}
			continue
		}
		for ; len(raw) >= 8; raw = raw[8:] {
			if binary.LittleEndian.Uint64(raw)&expMask == expMask { // NaN or ±Inf
				return fmt.Errorf("nn: saved tensor %q holds a non-finite weight", p.Name)
			}
		}
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("nn: decoding network: %w", err)
	}
	return nil
}

// expMask selects a float64's exponent bits, all set only in NaN and
// ±Inf.
const expMask = 0x7ff0000000000000

// savedNet is the gob payload of legacyNetworkArtifactKind images.
type savedNet struct {
	Names   []string
	Weights [][]float64
}

// legacyPayload decodes a legacy gob image and re-lays it in the flat
// layout, so readWeights validates both kinds alike.
func legacyPayload(gobPayload []byte) ([]byte, error) {
	var s savedNet
	if err := gob.NewDecoder(bytes.NewReader(gobPayload)).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: decoding network: %w", err)
	}
	if len(s.Names) != len(s.Weights) {
		return nil, fmt.Errorf("nn: saved network has %d names for %d tensors", len(s.Names), len(s.Weights))
	}
	payload := artifact.AppendInt(nil, len(s.Weights))
	for i, w := range s.Weights {
		payload = appendTensor(payload, s.Names[i], w)
	}
	return payload, nil
}
