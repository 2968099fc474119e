package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// StreamerOf is the incremental sliding-window forward path (DESIGN.md
// §12), parameterized by the inference scalar S. A batch scorer re-runs
// the whole network over the full [Window × C] matrix every stride even
// though consecutive windows share all but Step rows. The streamer
// instead ingests one row at a time and caches each layer's output in a
// ring:
//
//   - every new input row uncovers exactly one new Conv1D output row
//     per branch (once Kernel rows of history exist), computed in
//     the per-output order of the matVecBias micro-kernel the batch
//     path uses and stored post-ReLU;
//   - max pooling runs on the absolute pooling grid: window starts are
//     multiples of Step and Step is a multiple of Pool (checked at
//     construction), so the pool windows of consecutive decisions are
//     the same non-overlapping [p·r, p·r+p) blocks and the sliding
//     maximum degenerates to a per-block running max — one compare per
//     channel per conv row, no deque. (A monotonic deque is the
//     general structure for overlapping pool windows; profiling showed
//     it costing ~30% of the push path for zero benefit here, since
//     the paper's pooling never overlaps.)
//   - at a decision the pooled rings are gathered into the concat
//     vector and only the compiled dense head runs.
//
// Per decision that is O(Step·Kernel·C) conv work plus the head,
// instead of O(Window·Kernel·C) plus the head — and because every
// floating-point sum is produced in the same order over the same
// values, the result is bit-identical to
// Network.Predict on the assembled window at S=float64, not merely
// close. The kernels read a copy of the parameters taken once at
// construction, packed for the across-output AVX kernels, which keep
// the scalar kernels' per-output order bit for bit. At S=float32 that
// copy is the model's float64 checkpoint lowered (round-to-nearest-even
// per weight) and every kernel runs at single precision; the same
// order contract then makes the f32 streaming and f32 batch paths
// bit-identical to each other, with the f64 oracle agreement proven
// statistically by the precision harness rather than bit-for-bit.
//
// Branches whose input columns the caller re-bases per window (the
// detector subtracts the window-initial yaw from the Euler channels)
// see different input *values* at every stride, so their conv outputs
// cannot be cached across strides; those branches are recomputed in
// fused batch form at each decision. For the paper's 9-channel CNN
// that still streams the accelerometer and gyroscope branches — two
// thirds of the conv work — and the accel-only fallback CNN streams
// entirely.
//
// Cache invariants (relied on by Restart/rebuild and the snapshot
// tests):
//
//   - every cached value is a pure function of the last
//     min(count, Window) input rows and the absolute row count, so a
//     streamer rebuilt by replaying the detector's ring is in the
//     exact state of one that never stopped;
//   - branch input ring slot = absolute row mod Window (with the first
//     Kernel−1 slots mirrored past the end so a conv window is always
//     one contiguous slice), pool ring slot = absolute pool row mod
//     ⌊convT/Pool⌋: the rings hold precisely one window of history and
//     decision-time gathers only read rows the current window covers;
//   - pool rows are emitted on the absolute grid, which lines up with
//     every window start because window starts are multiples of Step
//     and Step is a multiple of Pool (re-checked by Ready).
//
// The push path carries every ring position as a running counter with
// a conditional wrap — no integer division or modulo anywhere per
// sample (a div by a non-constant costs ~20–40 cycles on the target
// core, which profiling showed dominating the original deque).
type StreamerOf[S tensor.Scalar] struct {
	inCh, window, step int

	in     []S    // input ring, [window × inCh]; absolute row r at slot r%window
	slot   int    // next write slot in `in` (== count mod window)
	count  int    // absolute rows ingested since the stream epoch
	base   int    // absolute row the ring history starts at (0 unless Restart-ed mid-stream)
	rebase []bool // per input column: re-based per window by the caller

	branches []*branchStreamOf[S]
	head     []headStepOf[S] // precompiled dense head (see buildHead)
	cat      *tensor.Of[S]   // concat vector fed to the head
}

// headOp selects what a compiled head step computes.
type headOp uint8

const (
	headDense   headOp = iota // y = W·x + b, optionally with the following ReLU folded in
	headSigmoid               // logistic transfer
)

// headStepOf is one precompiled step of the dense head. Dense layers
// (with a following ReLU folded in) run straight through the
// micro-kernels into a streamer-owned buffer; Sigmoid runs through
// sigmoidInto, which at float64 evaluates exactly the layer object's
// expression. Flatten is the identity on the 1-D head and compiles to
// no step at all. Every step therefore produces bit-identical values
// to the layer stack at S=float64 while skipping per-layer tensor
// bookkeeping on the decision path — and gives float32 a complete
// head with no float64 layer objects in the loop.
type headStepOf[S tensor.Scalar] struct {
	op   headOp
	relu bool     // headDense: clamp the output by the following ReLU
	mat  matOf[S] // headDense parameters: packed copy taken at construction
	buf  []S      // step output
}

// branchStreamOf is one Branch column range, whose stack is
// Conv1D→ReLU→MaxPool1D (the only branch shape NewStreamerOf accepts):
// either streamed through ring caches (non-rebased columns on an
// aligned stride) or recomputed in fused batch form per decision.
type branchStreamOf[S tensor.Scalar] struct {
	lo, hi int
	flat   int // flattened output length

	batch bool          // recomputed per decision instead of streamed
	in    *tensor.Of[S] // batch form: assembled [window × hi−lo] input

	// Conv/pool geometry (the streaming, fused-batch and BatchScore
	// forms all use it).
	filters  int
	kernel   int
	conv     matOf[S] // conv parameters: packed copy taken at construction
	pool     int
	convT    int // conv rows per window = window−Kernel+1
	fullPool int // complete pool rows per window = convT/pool
	tailLo   int // window-relative conv row where the partial pool tail starts (== convT when none)

	// Double-write input ring: [(window+kernel−1) × w]. Absolute row r
	// lives at slot r mod window; rows landing in slots < kernel−1 are
	// mirrored to slot+window, so the conv window of any row is the
	// contiguous slice bring[awin·w : awin·w+kernel·w] — no gather.
	bring []S
	awin  int // bring slot of the next conv row's window start (wraps at window)

	// Conv output storage. When the window's conv length is an exact
	// pool multiple only the running max needs each row and crow/crow2
	// are one-row scratches; with a partial pool tail the gather must
	// re-read the newest conv rows, so a full [convT × Filters] ring is
	// kept.
	crow     []S
	crow2    []S
	convRing []S
	aslot    int // convRing slot of the next conv row (wraps at convT)

	// Conv rows are computed in pairs through matVecBias2, which loads
	// each weight once for two windows: a freshly uncovered row is
	// deferred (pend/pendA) until its successor arrives, and Score
	// flushes a leftover single before gathering. Values are identical
	// either way — the pairing only changes when the arithmetic runs,
	// never its order. Pairing is disabled (pair == false) when
	// convT == 1 — the deferred row's input window would not survive
	// the next push — or when the conv input width reaches matVecBias's
	// wide path, whose summation order matVecBias2 does not reproduce.
	pair  bool
	pend  bool
	pendA int

	// Running max over the current pool block. phase counts conv rows
	// into the block (== a mod pool); at phase pool−1 the block is
	// complete and rmax is emitted to poolRing — unless the block
	// started before the stream epoch (partial after Restart).
	rmax     []S
	phase    int
	poolRing []S // [fullPool × Filters]; absolute pool row r at slot r%fullPool
	poolSlot int // poolRing slot of the next emitted pool row (wraps at fullPool)
}

// StreamConfig describes the stream a streamer will consume.
type StreamConfig struct {
	// InCh is the row width; Window and Step are the detector's
	// sliding-window geometry in samples.
	InCh, Window, Step int
	// RebaseCols lists input columns the caller re-bases per window
	// (the value at the window's first row is subtracted from the
	// whole column before scoring). Branches reading any of them are
	// recomputed in batch form at each decision.
	RebaseCols []int
}

// NewStreamerOf builds an incremental scorer at scalar width S for
// net, which must be a Branch whose every stack is Conv1D→ReLU→MaxPool1D,
// followed by a dense head of Dense, ReLU (directly after a Dense),
// Sigmoid and Flatten layers — the shape of every CNN this repo
// builds. Other topologies (MLP, recurrent, any other branch stack)
// return an error; callers fall back to batch scoring.
//
// The streamer snapshots net's parameters at construction, at both
// widths: each Conv1D and Dense matrix is copied once, lowered to S
// (round-to-nearest-even at float32) and, where the AVX kernels apply,
// packed into their across-output layout in the same pass (DESIGN.md
// §12.7). Updating net in place afterwards does not reach the
// streamer; build a new one.
func NewStreamerOf[S tensor.Scalar](net *Network, cfg StreamConfig) (*StreamerOf[S], error) {
	if net == nil || len(net.Layers) == 0 {
		return nil, fmt.Errorf("nn: streamer needs a non-empty network")
	}
	if cfg.InCh < 1 || cfg.Window < 1 || cfg.Step < 1 {
		return nil, fmt.Errorf("nn: streamer config %+v invalid", cfg)
	}
	br, ok := net.Layers[0].(*Branch)
	if !ok {
		return nil, fmt.Errorf("nn: streamer needs a branch-first topology, got %s", net.Layers[0].Name())
	}
	rebase := make([]bool, cfg.InCh)
	for _, c := range cfg.RebaseCols {
		if c < 0 || c >= cfg.InCh {
			return nil, fmt.Errorf("nn: rebase column %d outside %d channels", c, cfg.InCh)
		}
		rebase[c] = true
	}
	s := &StreamerOf[S]{
		inCh:   cfg.InCh,
		window: cfg.Window,
		step:   cfg.Step,
		in:     make([]S, cfg.Window*cfg.InCh),
		rebase: rebase,
	}
	total := 0
	for i, c := range br.Cols {
		lo, hi := c[0], c[1]
		if hi > cfg.InCh {
			return nil, fmt.Errorf("nn: branch %d columns %v exceed %d channels", i, c, cfg.InCh)
		}
		shape := []int{cfg.Window, hi - lo}
		for _, l := range br.Stacks[i] {
			var err error
			shape, err = l.OutShape(shape)
			if err != nil {
				return nil, fmt.Errorf("nn: streamer branch %d: %w", i, err)
			}
		}
		flat := 1
		for _, d := range shape {
			flat *= d
		}
		b := &branchStreamOf[S]{lo: lo, hi: hi, flat: flat}
		if !s.configureBranch(b, br.Stacks[i], rebase) {
			return nil, fmt.Errorf("nn: streamer branch %d needs a Conv1D→ReLU→MaxPool1D stack", i)
		}
		s.branches = append(s.branches, b)
		total += flat
	}
	layers := net.Layers[1:]
	hshape := []int{total}
	var prev Layer
	for _, l := range layers {
		switch l.(type) {
		case *Dense, *Sigmoid, *Flatten:
		case *ReLU:
			// Folded into the preceding Dense's stores; a ReLU after
			// anything else has no compiled step.
			if _, ok := prev.(*Dense); !ok {
				return nil, fmt.Errorf("nn: streamer head ReLU must follow a Dense")
			}
		default:
			return nil, fmt.Errorf("nn: streamer head cannot contain %s", l.Name())
		}
		var err error
		hshape, err = l.OutShape(hshape)
		if err != nil {
			return nil, fmt.Errorf("nn: streamer head: %w", err)
		}
		prev = l
	}
	if len(hshape) != 1 || hshape[0] != 1 {
		return nil, fmt.Errorf("nn: streamer head output shape %v, want [1]", hshape)
	}
	s.buildHead(layers, total)
	s.cat = tensor.NewOf[S](total)
	return s, nil
}

// buildHead precompiles the validated head layers into headSteps:
// Dense layers run through the micro-kernels with the ReLU that
// follows them folded into their step, Sigmoid through sigmoidInto,
// and Flatten — the identity on the 1-D head — compiles away entirely.
func (s *StreamerOf[S]) buildHead(layers []Layer, width int) {
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *Dense:
			st := headStepOf[S]{
				op:  headDense,
				mat: newMat[S](l.Weight.W.Data(), l.Bias.W.Data(), l.Out, l.In),
				buf: make([]S, l.Out),
			}
			if i+1 < len(layers) {
				if _, ok := layers[i+1].(*ReLU); ok {
					st.relu = true
					i++
				}
			}
			s.head = append(s.head, st)
			width = l.Out
		case *Sigmoid:
			s.head = append(s.head, headStepOf[S]{op: headSigmoid, buf: make([]S, width)})
		case *Flatten:
			// identity on a 1-D head: no step
		}
	}
}

// configureBranch decides how b evaluates its layers, reporting false
// unless they are exactly Conv1D→ReLU→MaxPool1D over the branch's
// width. A branch streams when none of its columns are re-based per
// window and the stride keeps window starts on the pooling grid (Step
// divisible by Pool). One that cannot stream (re-based columns,
// misaligned stride) is recomputed per decision in fused row-wise
// form — same order, same values, no intermediate layer tensors.
func (s *StreamerOf[S]) configureBranch(b *branchStreamOf[S], layers []Layer, rebase []bool) bool {
	if len(layers) != 3 {
		return false
	}
	conv, ok := layers[0].(*Conv1D)
	if !ok {
		return false
	}
	if _, ok := layers[1].(*ReLU); !ok {
		return false
	}
	mp, ok := layers[2].(*MaxPool1D)
	if !ok {
		return false
	}
	w := b.hi - b.lo
	convT := s.window - conv.Kernel + 1
	if conv.InCh != w || convT < 1 {
		return false
	}
	b.batch = true
	// Every batch form (including BatchScore on streaming branches)
	// assembles the window here.
	b.in = tensor.NewOf[S](s.window, w)
	b.filters = conv.Filters
	b.kernel = conv.Kernel
	b.conv = newMat[S](conv.Weight.W.Data(), conv.Bias.W.Data(), conv.Filters, conv.Kernel*w)
	b.pool = mp.Pool
	b.convT = convT
	b.fullPool = convT / mp.Pool
	b.tailLo = b.fullPool * mp.Pool
	b.crow = make([]S, conv.Filters)
	b.crow2 = make([]S, conv.Filters)

	rebased := false
	for c := b.lo; c < b.hi; c++ {
		rebased = rebased || rebase[c]
	}
	if rebased || s.step%mp.Pool != 0 {
		return true
	}
	b.batch = false
	b.pair = convT >= 2 && conv.Kernel*w < 32
	b.bring = make([]S, (s.window+conv.Kernel-1)*w)
	if b.tailLo < convT {
		b.convRing = make([]S, convT*conv.Filters)
	}
	b.rmax = make([]S, conv.Filters)
	b.poolRing = make([]S, b.fullPool*conv.Filters)
	return true
}

// Streaming reports whether any branch actually runs incrementally
// (a Streamer whose branches all fall back to batch form is valid but
// saves nothing).
func (s *StreamerOf[S]) Streaming() bool {
	for _, b := range s.branches {
		if !b.batch {
			return true
		}
	}
	return false
}

// Restart clears every cache and declares the next pushed row to be
// absolute row base. Rebuilding a streamer to the exact state of one
// that never stopped is Restart(count−n) followed by pushing the last
// n = min(count, Window) rows oldest-first: pool emission runs on the
// absolute grid, so the replay lands on the same ring slots and
// running-max phases as the original. The first pool block after a
// mid-stream Restart may begin before base; its rows are gone, so its
// emission is suppressed — no complete window ever covers it (window
// starts are ≥ base and grid-aligned).
func (s *StreamerOf[S]) Restart(base int) {
	s.count = base
	s.base = base
	s.slot = base % s.window
	for _, b := range s.branches {
		if b.batch {
			continue
		}
		b.awin = base % s.window
		b.aslot = base % b.convT
		b.phase = base % b.pool
		b.pend = false
		for i := range b.rmax {
			b.rmax[i] = 0
		}
		if b.fullPool > 0 {
			// First pool row emitted after base is ⌈base/pool⌉ — the
			// first block wholly at or after base.
			b.poolSlot = ((base + b.pool - 1) / b.pool) % b.fullPool
		}
	}
}

// Reset returns the streamer to its cold state.
func (s *StreamerOf[S]) Reset() { s.Restart(0) }

// Push ingests one input row (len ≥ inCh; only the first inCh values
// are read) and advances every streaming branch.
//
//fallvet:hotpath
func (s *StreamerOf[S]) Push(row []S) {
	slot := s.slot
	// Row widths are single-digit; explicit loops beat memmove calls.
	d := s.in[slot*s.inCh : (slot+1)*s.inCh]
	for i := range d {
		d[i] = row[i]
	}
	s.slot++
	if s.slot == s.window {
		s.slot = 0
	}
	s.count++
	for _, b := range s.branches {
		if b.batch {
			continue
		}
		w := b.hi - b.lo
		src := row[b.lo:b.hi]
		p := b.bring[slot*w : slot*w+w]
		for i := range p {
			p[i] = src[i]
		}
		if slot < b.kernel-1 {
			m := b.bring[(slot+s.window)*w : (slot+s.window)*w+w]
			for i := range m {
				m[i] = src[i]
			}
		}
		if a := s.count - b.kernel; a >= s.base {
			b.pushConv(s, a)
		}
	}
}

// pushConv handles absolute conv row a, newly uncovered by the latest
// push. With a predecessor pending the two rows are computed together
// through apply2ReLU; otherwise the row is deferred for the next
// push (or for Score's flush). Branches with pairing disabled compute
// immediately — see the pair field comment.
//
//fallvet:hotpath
func (b *branchStreamOf[S]) pushConv(s *StreamerOf[S], a int) {
	if !b.pend {
		if !b.pair {
			b.convRow(s, a)
			return
		}
		b.pend = true
		b.pendA = a
		return
	}
	b.pend = false
	w := b.hi - b.lo
	kc := b.kernel * w
	xa := b.bring[b.awin*w : b.awin*w+kc]
	aw2 := b.awin + 1
	if aw2 == s.window {
		aw2 = 0
	}
	xb := b.bring[aw2*w : aw2*w+kc]
	b.awin = aw2 + 1
	if b.awin == s.window {
		b.awin = 0
	}
	F := b.filters
	da, db := b.crow, b.crow2
	if b.convRing != nil {
		da = b.convRing[b.aslot*F : b.aslot*F+F]
		b.aslot++
		if b.aslot == b.convT {
			b.aslot = 0
		}
		db = b.convRing[b.aslot*F : b.aslot*F+F]
		b.aslot++
		if b.aslot == b.convT {
			b.aslot = 0
		}
	}
	b.conv.apply2ReLU(da, db, xa, xb)
	b.absorb(s, da, a-1)
	b.absorb(s, db, a)
}

// convRow computes one conv row on its own (pair flush, or a branch
// with pairing disabled).
//
//fallvet:hotpath
func (b *branchStreamOf[S]) convRow(s *StreamerOf[S], a int) {
	w := b.hi - b.lo
	kc := b.kernel * w
	win := b.bring[b.awin*w : b.awin*w+kc]
	b.awin++
	if b.awin == s.window {
		b.awin = 0
	}
	F := b.filters
	orow := b.crow
	if b.convRing != nil {
		orow = b.convRing[b.aslot*F : b.aslot*F+F]
		b.aslot++
		if b.aslot == b.convT {
			b.aslot = 0
		}
	}
	b.conv.apply(orow, win, true)
	b.absorb(s, orow, a)
}

// flush computes a deferred conv row so every row the current window
// covers is materialised before a gather.
//
//fallvet:hotpath
func (b *branchStreamOf[S]) flush(s *StreamerOf[S]) {
	if b.pend {
		b.pend = false
		b.convRow(s, b.pendA)
	}
}

// absorb folds a conv row (already clamped by the ReLU-fused kernel)
// into the running pool max and emits a pooled row when it completes a
// pool block (suppressed for the partial block straddling a mid-stream
// Restart).
//
//fallvet:hotpath
func (b *branchStreamOf[S]) absorb(s *StreamerOf[S], orow []S, a int) {
	if b.fullPool == 0 {
		return
	}
	rmax := b.rmax
	if b.phase == 0 {
		copy(rmax, orow)
	} else {
		maxInto(rmax, orow)
	}
	b.phase++
	if b.phase == b.pool {
		b.phase = 0
		if a+1-b.pool >= s.base {
			F := b.filters
			p := b.poolSlot * F
			copy(b.poolRing[p:p+F], rmax)
			b.poolSlot++
			if b.poolSlot == b.fullPool {
				b.poolSlot = 0
			}
		}
	}
}

// Ready reports whether Score may run: a full window of history
// exists and its start row sits on every streaming branch's pooling
// grid. Detector strides keep the start aligned (Step is a multiple
// of Pool); off-stride callers simply see false and score in batch.
func (s *StreamerOf[S]) Ready() bool {
	if s.count < s.window {
		return false
	}
	start := s.count - s.window
	for _, b := range s.branches {
		if !b.batch && start%b.pool != 0 {
			return false
		}
	}
	return true
}

// Score evaluates the network over the current window, reusing every
// cached conv/pool row the slide kept and recomputing only re-based
// branches and the dense head. Callers must check Ready first.
//
//fallvet:hotpath
func (s *StreamerOf[S]) Score() float64 {
	start := s.count - s.window
	cd := s.cat.Data()
	off := 0
	for _, b := range s.branches {
		if b.batch {
			s.runBatchBranch(b, cd[off:off+b.flat], start)
		} else {
			b.flush(s)
			b.gather(cd[off:off+b.flat], start)
		}
		off += b.flat
	}
	return float64(s.runHead(cd))
}

// BatchScore evaluates the network over the current window entirely in
// batch form from the streamer's own input ring — every branch through
// the fused row-wise kernels, then the compiled head. Unlike Score it
// does not require the window start to sit on the pooling grid, so it
// is the compiled path's full fallback for off-stride scoring; at
// S=float64 it is bit-identical to Network.Predict on the assembled
// window by the kernel order contract. A full window of history must
// exist (count ≥ Window).
//
//fallvet:hotpath
func (s *StreamerOf[S]) BatchScore() float64 {
	start := s.count - s.window
	cd := s.cat.Data()
	off := 0
	for _, b := range s.branches {
		s.runBatchBranch(b, cd[off:off+b.flat], start)
		off += b.flat
	}
	return float64(s.runHead(cd))
}

// runHead executes the precompiled head steps over the concat vector
// and returns the (single) network output.
//
//fallvet:hotpath
func (s *StreamerOf[S]) runHead(cur []S) S {
	for i := range s.head {
		st := &s.head[i]
		switch st.op {
		case headDense:
			st.mat.apply(st.buf, cur, st.relu)
		case headSigmoid:
			sigmoidInto(st.buf, cur)
		}
		cur = st.buf
	}
	return cur[0]
}

// sigmoidInto writes the logistic function element-wise. The transfer
// runs through float64 at both widths, so the float64 instantiation is
// Sigmoid.Forward's exact expression and the float32 one differs only
// by the final rounding of an exactly-computed double.
//
//fallvet:hotpath
func sigmoidInto[S tensor.Scalar](dst, x []S) {
	for i, v := range x {
		dst[i] = S(1 / (1 + math.Exp(-float64(v))))
	}
}

// gather copies the window's pooled rows (plus the partial tail, if
// the conv length is not a pool multiple) into dst. The divisions
// here run once per decision, not per sample. A window whose conv
// output is shorter than one pool block has no pooled rows at all,
// only the tail.
//
//fallvet:hotpath
func (b *branchStreamOf[S]) gather(dst []S, start int) {
	F := b.filters
	n := 0
	if b.fullPool > 0 {
		slot := (start / b.pool) % b.fullPool
		for q := 0; q < b.fullPool; q++ {
			p := slot * F
			copy(dst[n:n+F], b.poolRing[p:p+F])
			n += F
			slot++
			if slot == b.fullPool {
				slot = 0
			}
		}
	}
	if b.tailLo < b.convT {
		cs := (start + b.tailLo) % b.convT
		copy(dst[n:n+F], b.convRing[cs*F:cs*F+F])
		for q := b.tailLo + 1; q < b.convT; q++ {
			cs++
			if cs == b.convT {
				cs = 0
			}
			maxInto(dst[n:n+F], b.convRing[cs*F:cs*F+F])
		}
	}
}

// runBatchBranch assembles the branch's input columns from the ring,
// applies the per-window re-basing the detector applies (subtracting
// each re-based column's first value), and runs the fused row-wise
// kernels — the same values in the same order as the batch path.
//
//fallvet:hotpath
func (s *StreamerOf[S]) runBatchBranch(b *branchStreamOf[S], dst []S, start int) {
	w := b.hi - b.lo
	ind := b.in.Data()
	slot := start % s.window
	for i := 0; i < s.window; i++ {
		src := s.in[slot*s.inCh+b.lo : slot*s.inCh+b.hi]
		row := ind[i*w : i*w+w]
		for j := range row {
			row[j] = src[j]
		}
		slot++
		if slot == s.window {
			slot = 0
		}
	}
	for c := 0; c < w; c++ {
		if !s.rebase[b.lo+c] {
			continue
		}
		v0 := ind[c]
		for i := 0; i < s.window; i++ {
			ind[i*w+c] -= v0
		}
	}
	b.fusedConvPool(dst, ind)
}

// fusedConvPool evaluates the branch's Conv→ReLU→MaxPool stack over the
// assembled window row-wise, writing pooled rows (and the trailing
// partial block) straight into dst. It produces bit-identical values
// to the layer objects — each conv row is matVecBias's per-output
// order over the same contiguous input slice, ReLU is the same
// v ≤ 0 clamp, pooling the same strict-`>` running max — while
// skipping every intermediate tensor.
//
//fallvet:hotpath
func (b *branchStreamOf[S]) fusedConvPool(dst, ind []S) {
	w := b.hi - b.lo
	kc := b.kernel * w
	phase, n := 0, 0
	t := 0
	if kc < 32 {
		for ; t+2 <= b.convT; t += 2 {
			b.conv.apply2ReLU(b.crow, b.crow2, ind[t*w:t*w+kc], ind[(t+1)*w:(t+1)*w+kc])
			phase, n = b.fusedAbsorb(dst, b.crow, phase, n)
			phase, n = b.fusedAbsorb(dst, b.crow2, phase, n)
		}
	}
	for ; t < b.convT; t++ {
		b.conv.apply(b.crow, ind[t*w:t*w+kc], true)
		phase, n = b.fusedAbsorb(dst, b.crow, phase, n)
	}
}

// fusedAbsorb folds one fused conv row (pre-clamped by the ReLU-fused
// kernel) into the pooled output at block offset n, returning the
// advanced (phase, n).
//
//fallvet:hotpath
func (b *branchStreamOf[S]) fusedAbsorb(dst, crow []S, phase, n int) (int, int) {
	F := b.filters
	seg := dst[n : n+F]
	if phase == 0 {
		copy(seg, crow)
	} else {
		maxInto(seg, crow)
	}
	phase++
	if phase == b.pool {
		phase = 0
		n += F
	}
	return phase, n
}
