package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/tensor"
)

// Network.Save writes the flat little-endian weight layout; Load reads
// it and the gob layout of earlier builds. These tests pin both
// layouts and hold both readers to every guarantee Load makes: digest
// and kind first, names and sizes against the live network, finite
// weights only, the payload consumed exactly, and nothing written
// unless all of that holds.

// legacySavedNet is a frozen copy of the gob payload that every build
// before the flat layout wrote under "nn-float64-weights". It must not
// change: it stands for the images those builds left on disk.
type legacySavedNet struct {
	Names   []string
	Weights [][]float64
}

// legacyImage frames names and weights as those builds did.
func legacyImage(t testing.TB, names []string, ws [][]float64) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&legacySavedNet{Names: names, Weights: ws}); err != nil {
		t.Fatal(err)
	}
	return envelope(t, "nn-float64-weights", payload.Bytes())
}

// flatImage frames names and weights in the current layout.
func flatImage(t testing.TB, names []string, ws [][]float64) []byte {
	t.Helper()
	payload := artifact.AppendInt(nil, len(ws))
	for i, w := range ws {
		payload = appendTensor(payload, names[i], w)
	}
	return envelope(t, NetworkArtifactKind, payload)
}

func envelope(t testing.TB, kind string, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := artifact.Write(&buf, kind, nil, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// weightReaders are Load's two readers, each with the writer of the
// images it reads.
var weightReaders = []struct {
	name  string
	image func(t testing.TB, names []string, ws [][]float64) []byte
}{
	{"flat", flatImage},
	{"legacy-gob", legacyImage},
}

// netWeights copies a network's tensor names and values.
func netWeights(n *Network) ([]string, [][]float64) {
	var names []string
	for _, p := range n.Params() {
		names = append(names, p.Name)
	}
	return names, n.Snapshot()
}

// weightBits returns every weight's bit pattern, in parameter order.
func weightBits(n *Network) []uint64 {
	var bits []uint64
	for _, p := range n.Params() {
		for _, v := range p.W.Data() {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

func sameWeightBits(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d weights, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: weight %d is %#x, want %#x", what, i, got[i], want[i])
		}
	}
}

// loadCNN is a small three-branch CNN of the paper's shape: big enough
// to hold every layer kind the deployed networks save, small enough
// for an exhaustive truncation sweep.
func loadCNN(t testing.TB, seed int64) *Network {
	return streamTestNet(t, 40, [][2]int{{0, 3}, {3, 6}, {6, 9}}, 2, 5, 2, rand.New(rand.NewSource(seed)))
}

// edgeWeights replaces a few of a network's weights with the finite
// values a bit-exact codec must carry: ±0, subnormals of both signs,
// the largest finite values and the smallest normal.
func edgeWeights(ws [][]float64) {
	edge := []uint64{
		0x0000000000000000, 0x8000000000000000, 0x0000000000000001,
		0x800fffffffffffff, 0x7fefffffffffffff, 0xffefffffffffffff,
		0x0010000000000000,
	}
	for i, b := range edge {
		w := ws[i%len(ws)]
		w[(7*i)%len(w)] = math.Float64frombits(b)
	}
}

// TestNetworkImageLayout pins the flat layout byte for byte on a
// one-weight network: count, then name length, name, value count and
// value bits per tensor, each a little-endian uint64.
func TestNetworkImageLayout(t *testing.T) {
	n := NewNetwork(NewDense(1, 1, rand.New(rand.NewSource(1))))
	n.Params()[0].W.Data()[0] = -1.5
	n.Params()[1].W.Data()[0] = math.Float64frombits(0x0000000000000001)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	h, payload, err := artifact.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != "nn-float64-weights-le" || h.DType != tensor.F64 {
		t.Fatalf("header %+v", h)
	}
	le := binary.LittleEndian
	want := le.AppendUint64(nil, 2)
	for _, tensor := range []struct {
		name string
		bits uint64
	}{{"dense.w", 0xbff8000000000000}, {"dense.b", 1}} {
		want = le.AppendUint64(want, uint64(len(tensor.name)))
		want = append(want, tensor.name...)
		want = le.AppendUint64(want, 1)
		want = le.AppendUint64(want, tensor.bits)
	}
	if !bytes.Equal(payload, want) {
		t.Fatalf("payload\n %x\nwant\n %x", payload, want)
	}
}

// TestNetworkLoadBitIdentical: an image from either writer loads into
// a differently initialised network with every weight bit-identical,
// and a re-Save of the loaded network writes the flat image byte for
// byte.
func TestNetworkLoadBitIdentical(t *testing.T) {
	src := loadCNN(t, 1)
	names, ws := netWeights(src)
	edgeWeights(ws)
	flat := flatImage(t, names, ws)
	for _, rd := range weightReaders {
		t.Run(rd.name, func(t *testing.T) {
			dst := loadCNN(t, 2)
			if err := dst.Load(bytes.NewReader(rd.image(t, names, ws))); err != nil {
				t.Fatal(err)
			}
			src.Restore(ws)
			sameWeightBits(t, "loaded", weightBits(dst), weightBits(src))
			var re bytes.Buffer
			if err := dst.Save(&re); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re.Bytes(), flat) {
				t.Fatal("re-Save of a loaded network differs from the flat image")
			}
		})
	}
}

// TestNetworkLoadRejects: each corrupt image is rejected by both
// readers, and the failed Load leaves every weight bit-identical.
func TestNetworkLoadRejects(t *testing.T) {
	set := func(tensor, i int, v float64) func([]string, [][]float64) ([]string, [][]float64) {
		return func(names []string, ws [][]float64) ([]string, [][]float64) {
			ws[tensor][i] = v
			return names, ws
		}
	}
	cases := []struct {
		name string
		edit func([]string, [][]float64) ([]string, [][]float64)
	}{
		{"nan", set(1, 0, math.NaN())},
		{"nan-payload", set(2, 2, math.Float64frombits(0xfff4000000000123))},
		{"+inf", set(0, 5, math.Inf(1))},
		{"-inf", set(6, 0, math.Inf(-1))},
		{"tensor-missing", func(names []string, ws [][]float64) ([]string, [][]float64) {
			return names[:len(names)-1], ws[:len(ws)-1]
		}},
		{"tensor-extra", func(names []string, ws [][]float64) ([]string, [][]float64) {
			return append(names, names[0]), append(ws, ws[0])
		}},
		{"renamed", func(names []string, ws [][]float64) ([]string, [][]float64) {
			names[2] = "dense.w"
			return names, ws
		}},
		{"resized", func(names []string, ws [][]float64) ([]string, [][]float64) {
			ws[4] = ws[4][:len(ws[4])-1]
			return names, ws
		}},
	}
	dst := loadCNN(t, 2)
	before := weightBits(dst)
	reject := func(t *testing.T, img []byte) {
		t.Helper()
		if err := dst.Load(bytes.NewReader(img)); err == nil {
			t.Fatal("corrupt image loaded")
		}
		sameWeightBits(t, "after a failed Load", weightBits(dst), before)
	}
	for _, rd := range weightReaders {
		t.Run(rd.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					names, ws := c.edit(netWeights(loadCNN(t, 1)))
					reject(t, rd.image(t, names, ws))
				})
			}
			names, ws := netWeights(loadCNN(t, 1))
			h, payload, err := artifact.Read(bytes.NewReader(rd.image(t, names, ws)))
			if err != nil {
				t.Fatal(err)
			}
			// The same payload under another kind: a foreign model
			// family, and the other reader's kind.
			for _, kind := range []string{"qnet-int8", NetworkArtifactKind, legacyNetworkArtifactKind} {
				if kind == h.Kind {
					continue
				}
				t.Run("kind-"+kind, func(t *testing.T) { reject(t, envelope(t, kind, payload)) })
			}
		})
	}
	t.Run("flat/trailing-bytes", func(t *testing.T) {
		names, ws := netWeights(loadCNN(t, 1))
		_, payload, err := artifact.Read(bytes.NewReader(flatImage(t, names, ws)))
		if err != nil {
			t.Fatal(err)
		}
		reject(t, envelope(t, NetworkArtifactKind, artifact.AppendUint64(payload, 0)))
	})
}

// TestNetworkLoadChaos: every truncation and a sample of single bit
// flips of a real CNN image, from either writer, is rejected and
// leaves the weights untouched.
func TestNetworkLoadChaos(t *testing.T) {
	names, ws := netWeights(loadCNN(t, 1))
	dst := loadCNN(t, 2)
	before := weightBits(dst)
	for _, rd := range weightReaders {
		t.Run(rd.name, func(t *testing.T) {
			img := rd.image(t, names, ws)
			for n := 0; n < len(img); n++ {
				if err := dst.Load(bytes.NewReader(img[:n])); err == nil {
					t.Fatalf("truncation to %d/%d bytes loaded", n, len(img))
				}
			}
			for i := 0; i < len(img); i += 61 {
				for bit := 0; bit < 8; bit++ {
					mut := append([]byte(nil), img...)
					mut[i] ^= 1 << bit
					if err := dst.Load(bytes.NewReader(mut)); err == nil {
						t.Fatalf("bit flip at byte %d bit %d loaded", i, bit)
					}
				}
			}
			sameWeightBits(t, "after the chaos sweep", weightBits(dst), before)
		})
	}
}

// FuzzNetworkLoad wraps arbitrary payload bytes in a valid envelope of
// the flat kind, so every input passes the digest and reaches the
// weight decoder. Load must not panic; it must allocate no more than
// the envelope it reads (a length claimed by the payload drives no
// allocation); and either it succeeds and a re-Save reproduces the
// envelope byte for byte, or it fails and leaves every weight
// bit-identical.
func FuzzNetworkLoad(f *testing.F) {
	var img bytes.Buffer
	src := loadCNN(f, 1)
	if err := src.Save(&img); err != nil {
		f.Fatal(err)
	}
	_, payload, err := artifact.Read(bytes.NewReader(img.Bytes()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add(payload[:len(payload)-1])
	f.Add(append(append([]byte(nil), payload...), 0))
	f.Add([]byte{})
	f.Add(artifact.AppendUint64(nil, math.MaxUint64)) // hostile tensor count
	for _, off := range []int{8, 8 + 8 + len("conv1d.w")} {
		// A hostile name length, then a hostile value count.
		mut := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint64(mut[off:], 1<<62)
		f.Add(mut)
	}
	nan := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint64(nan[8+8+len("conv1d.w")+8:], 0x7ff8000000000001)
	f.Add(nan)
	// A long, non-printable, mismatched name: the error must not quote
	// it in full, or its text alone outgrows the allocation bound.
	long := bytes.Repeat([]byte{0xff}, 32<<10)
	f.Add(append(artifact.AppendInt(artifact.AppendInt(nil, len(src.Params())), len(long)), long...))

	dst := loadCNN(f, 2)
	f.Fuzz(func(t *testing.T, payload []byte) {
		env := envelope(t, NetworkArtifactKind, payload)
		before := weightBits(dst)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := dst.Load(bytes.NewReader(env))
		runtime.ReadMemStats(&m1)
		// The envelope buffer plus error text: 64 KiB of slack.
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > uint64(len(env))+64<<10 {
			t.Fatalf("Load of a %d-byte envelope allocated %d bytes", len(env), grew)
		}
		if err != nil {
			sameWeightBits(t, "after a failed Load", weightBits(dst), before)
			return
		}
		var re bytes.Buffer
		if err := dst.Save(&re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), env) {
			t.Fatal("a loaded payload re-saves differently")
		}
	})
}
