package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Coverage notes for the manifest below: which dynamic check backs
// each //fallvet:hotpath annotation. The AllocsPerRun tests are the
// runtime ground truth; functions marked "static rule only" sit on
// paths no alloc gate measures (training steps, degradation handling,
// cold re-primes) and rely on the hotpath analyzer alone.
const (
	edgeAlloc    = "internal/edge/alloc_test.go TestDetectorPushAllocationFree (full CNN stride)"
	cascadeAlloc = "internal/cascade/alloc_test.go TestCascadePushAllocationFree (per tier)"
	nnAlloc      = "internal/nn/parallel_fit_test.go TestPredictAllocationFree + internal/edge/alloc_test.go"
	quantAlloc   = "internal/quant/alloc_test.go TestQuantizedPredictAllocationFree"
	trainOnly    = "training path: static hotpath rule only (no dynamic alloc gate)"
	degrade      = "degradation path: static hotpath rule only (shares Push scratch)"
	coldPrime    = "cold (re)prime path: static hotpath rule only"
	streamAlloc  = "internal/nn/stream_test.go TestStreamerAllocationFree + internal/edge/alloc_test.go (streaming push)"
)

// hotpathCoverage is the audited annotation manifest: every
// //fallvet:hotpath in the repo, keyed "dir.Func" / "dir.Recv.Func".
// TestHotpathAnnotationsMatchManifest fails in both directions — an
// annotation missing here, or a manifest entry whose annotation was
// removed — so the zero-alloc set can only change deliberately.
var hotpathCoverage = map[string]string{
	// Float inference path: layer forwards under both alloc gates.
	"internal/nn.Network.Predict":   nnAlloc,
	"internal/nn.Network.Forward":   nnAlloc,
	"internal/nn.Conv1D.Forward":    nnAlloc,
	"internal/nn.MaxPool1D.Forward": nnAlloc,
	"internal/nn.Dense.Forward":     nnAlloc,
	"internal/nn.ReLU.Forward":      nnAlloc,
	"internal/nn.Sigmoid.Forward":   nnAlloc,
	"internal/nn.Flatten.Forward":   nnAlloc,
	"internal/nn.Branch.Forward":    nnAlloc,
	"internal/nn.sliceInto":         nnAlloc,
	"internal/tensor.Reuse":         nnAlloc,
	"internal/tensor.ViewInto":      nnAlloc,
	"internal/model.NetModel.Score": edgeAlloc,

	// Training path: backwards and loss, statically checked only.
	"internal/nn.Network.Backward":      trainOnly,
	"internal/nn.Conv1D.Backward":       trainOnly,
	"internal/nn.MaxPool1D.Backward":    trainOnly,
	"internal/nn.Dense.Backward":        trainOnly,
	"internal/nn.ReLU.Backward":         trainOnly,
	"internal/nn.Sigmoid.Backward":      trainOnly,
	"internal/nn.Flatten.Backward":      trainOnly,
	"internal/nn.Branch.Backward":       trainOnly,
	"internal/nn.WeightedBCE.Loss":      trainOnly,
	"internal/nn.WeightedBCE.GradValue": trainOnly,

	// Streaming pipeline: everything Detector.Push touches per sample.
	"internal/edge.DetectorOf.Push":          edgeAlloc,
	"internal/edge.DetectorOf.ingest":        edgeAlloc,
	"internal/edge.DetectorOf.maybeEvaluate": edgeAlloc,
	"internal/edge.clamp1":                   edgeAlloc,
	"internal/edge.clampFull":                edgeAlloc,
	"internal/edge.finiteVec":                edgeAlloc,
	"internal/edge.healthRing.observe":       edgeAlloc,
	"internal/edge.healthRing.health":        edgeAlloc,
	"internal/imu.Fusion.Update":             edgeAlloc,
	"internal/imu.accAngles":                 edgeAlloc,
	"internal/imu.finite":                    edgeAlloc,
	"internal/imu.wrap180":                   edgeAlloc,
	"internal/imu.ChannelScale":              edgeAlloc,
	"internal/dsp.Biquad.Process":            edgeAlloc,
	"internal/dsp.Filter.Process":            edgeAlloc,
	"internal/dsp.Filter.Prime":              coldPrime,

	// Ingest/evaluate split and per-group health, driven per sample by
	// both Detector.Push and the cascade Push alloc gates.
	"internal/edge.DetectorOf.push":           edgeAlloc,
	"internal/edge.DetectorOf.Ingest":         cascadeAlloc,
	"internal/edge.DetectorOf.StrideReady":    cascadeAlloc,
	"internal/edge.DetectorOf.WindowFresh":    cascadeAlloc,
	"internal/edge.DetectorOf.ScoreWindow":    cascadeAlloc,
	"internal/edge.DetectorOf.assembleWindow": edgeAlloc,
	"internal/edge.DetectorOf.GroupHealth":    cascadeAlloc,
	"internal/edge.GroupHealth.Worst":         cascadeAlloc,
	"internal/edge.stuckRun.observe":          edgeAlloc,
	"internal/edge.axisRun.observe":           edgeAlloc,
	"internal/edge.driftTrack.observeAcc":     edgeAlloc,
	"internal/edge.driftTrack.observeGyro":    edgeAlloc,

	// Degradation path of the streaming pipeline.
	"internal/edge.DetectorOf.PushMissing":   degrade,
	"internal/edge.DetectorOf.IngestMissing": degrade,
	"internal/edge.DetectorOf.pushMissing":   degrade,
	"internal/edge.DetectorOf.absorbMissing": degrade,

	// Detector cascade: supervisor, threshold floor and decision path,
	// all inside cascade.Push at every tier.
	"internal/cascade.CascadeOf.Push":         cascadeAlloc,
	"internal/cascade.CascadeOf.PushMissing":  cascadeAlloc,
	"internal/cascade.CascadeOf.decide":       cascadeAlloc,
	"internal/cascade.CascadeOf.tierScorable": cascadeAlloc,
	"internal/cascade.supervisor.step":        cascadeAlloc,
	"internal/cascade.stayOK":                 cascadeAlloc,
	"internal/cascade.enterOK":                cascadeAlloc,
	"internal/cascade.finiteAcc":              cascadeAlloc,
	"internal/cascade.tier2.push":             cascadeAlloc,
	"internal/cascade.tier2.missing":          cascadeAlloc,
	"internal/cascade.tier2.score":            cascadeAlloc,

	// Quantized inference path.
	"internal/quant.QNetwork.Predict": quantAlloc,
	"internal/quant.PredictOf":        quantAlloc,
	"internal/quant.reuseQ":           quantAlloc,
	"internal/quant.requant":          quantAlloc,
	"internal/quant.quantizeTo":       quantAlloc,
	"internal/quant.qdense.forward":   quantAlloc,
	"internal/quant.qconv1d.forward":  quantAlloc,
	"internal/quant.qrelu.forward":    quantAlloc,
	"internal/quant.qmaxpool.forward": quantAlloc,
	"internal/quant.qflatten.forward": quantAlloc,
	"internal/quant.qrescale.forward": quantAlloc,
	"internal/quant.qbranch.forward":  quantAlloc,
	"internal/quant.matVecRequant":    quantAlloc,

	// Blocked matrix-vector kernels (DESIGN §12): every float
	// inference MAC — batch and streaming — funnels through these.
	"internal/nn.matVecBias":       nnAlloc,
	"internal/nn.sigmoidInto":      nnAlloc,
	"internal/nn.matVecBias2":      streamAlloc,
	"internal/nn.matVecBiasWide":   nnAlloc,
	"internal/nn.matVecBiasSparse": nnAlloc,
	"internal/nn.nonzeros":         nnAlloc,
	"internal/nn.reluClamp":        streamAlloc,

	// Across-output dispatch (DESIGN §12.7): the streamer's packed
	// weight copies into the AVX kernels, leftover rows into the
	// blocked kernels above, and the pool fold into the AVX max.
	"internal/nn.matOf.apply":      streamAlloc,
	"internal/nn.matOf.apply2ReLU": streamAlloc,
	"internal/nn.packedF64":        streamAlloc,
	"internal/nn.maxInto":          streamAlloc,

	// Incremental inference engine: the per-sample push path and the
	// per-stride scoring path of nn.StreamerOf.
	"internal/nn.StreamerOf.Push":              streamAlloc,
	"internal/nn.StreamerOf.Score":             streamAlloc,
	"internal/nn.StreamerOf.BatchScore":        streamAlloc,
	"internal/nn.StreamerOf.runHead":           streamAlloc,
	"internal/nn.StreamerOf.runBatchBranch":    streamAlloc,
	"internal/nn.branchStreamOf.pushConv":      streamAlloc,
	"internal/nn.branchStreamOf.convRow":       streamAlloc,
	"internal/nn.branchStreamOf.flush":         streamAlloc,
	"internal/nn.branchStreamOf.absorb":        streamAlloc,
	"internal/nn.branchStreamOf.gather":        streamAlloc,
	"internal/nn.branchStreamOf.fusedConvPool": streamAlloc,
	"internal/nn.branchStreamOf.fusedAbsorb":   streamAlloc,
}

// annotatedFunctions parses every non-test Go file in the module
// (skipping testdata/vendor, so fixtures do not count) and collects
// the //fallvet:hotpath-annotated functions as "dir.DisplayName".
func annotatedFunctions(t *testing.T) map[string]bool {
	t.Helper()
	root, _, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	annotated := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		relDir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if c.Text == "//fallvet:hotpath" {
					annotated[filepath.ToSlash(relDir)+"."+funcDisplayName(fd)] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return annotated
}

// TestHotpathAnnotationsMatchManifest cross-checks the annotated set
// against hotpathCoverage in both directions.
func TestHotpathAnnotationsMatchManifest(t *testing.T) {
	annotated := annotatedFunctions(t)
	var unlisted, stale []string
	for name := range annotated {
		if _, ok := hotpathCoverage[name]; !ok {
			unlisted = append(unlisted, name)
		}
	}
	for name := range hotpathCoverage {
		if !annotated[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(unlisted)
	sort.Strings(stale)
	for _, name := range unlisted {
		t.Errorf("%s is annotated //fallvet:hotpath but missing from hotpathCoverage: state which dynamic test backs it", name)
	}
	for _, name := range stale {
		t.Errorf("hotpathCoverage lists %s but no such annotation exists: remove the entry or restore the annotation", name)
	}
	if len(annotated) == 0 {
		t.Fatal("found no //fallvet:hotpath annotations in the repo")
	}
}

// loadRepoPasses loads and analyzes the whole module once per test
// binary — the source importer type-checks every dependency, so this
// is the expensive step — and shares the passes between the
// whole-program audit tests below.
var (
	repoPassesOnce sync.Once
	repoPasses     []*pass
	repoPassesErr  error
)

func loadRepoPasses(t *testing.T) []*pass {
	t.Helper()
	repoPassesOnce.Do(func() {
		root, modPath, err := moduleRoot(".")
		if err != nil {
			repoPassesErr = err
			return
		}
		targets, err := expand(root, root, modPath, []string{"./..."})
		if err != nil {
			repoPassesErr = err
			return
		}
		l := newLoader()
		var pkgs []*Package
		for _, tg := range targets {
			pkg, err := l.load(tg[0], tg[1])
			if err != nil {
				repoPassesErr = err
				return
			}
			if pkg != nil {
				pkgs = append(pkgs, pkg)
			}
		}
		repoPasses, _ = buildPasses(pkgs, DefaultConfig())
	})
	if repoPassesErr != nil {
		t.Fatal(repoPassesErr)
	}
	return repoPasses
}

// TestTransitiveProofMatchesAllocGates is the two-way contract between
// the static whole-program proof and the dynamic AllocsPerRun gates:
//
//   - every function the manifest backs with a dynamic gate (or a
//     documented static-only note) must be transitively PROVEN
//     alloc-free by hottrans — an unproven hot function means the
//     static guarantee silently regressed even if the gate still
//     passes (gates measure one input shape; the proof covers all);
//   - every function hottrans proves must be listed in the manifest,
//     so a proof without a stated runtime witness cannot appear.
//
// Manifest keys are module-relative ("internal/nn.Network.Predict");
// proveHotpaths keys carry the module path ("repro/internal/nn....").
func TestTransitiveProofMatchesAllocGates(t *testing.T) {
	passes := loadRepoPasses(t)
	proven := proveHotpaths(passes)

	for name, gate := range hotpathCoverage {
		diags, ok := proven["repro/"+name]
		if !ok {
			t.Errorf("%s is in the manifest (gate: %s) but the call-graph proof never saw it", name, gate)
			continue
		}
		for _, d := range diags {
			t.Errorf("%s is gated by %q but NOT transitively alloc-free: %s", name, gate, d)
		}
	}
	for key := range proven {
		name := strings.TrimPrefix(key, "repro/")
		if _, ok := hotpathCoverage[name]; !ok {
			t.Errorf("%s is proven hot but has no manifest entry: state which dynamic test backs it", name)
		}
	}
	if len(proven) == 0 {
		t.Fatal("proveHotpaths found no hot functions in the repo")
	}
}

// TestSnapshotPairSet pins which types the snapshot analyzer actually
// audits. A pair silently dropping out of this set (renamed writer,
// changed receiver type) would turn off its completeness checking
// without failing any other test.
//
// Two subsystems the crash-safety story depends on are deliberately
// absent: internal/artifact serializes through free functions
// (AppendEnvelope / StateReader), not a method pair, and nn.StreamerOf
// is never serialized at all — edge.Detector rebuilds it row by row
// after ReadState, which is exactly what its //fallvet:derived streams
// tag records. Their state is audited through the pairs that own it
// (edge.Detector, serve.Session), not as pairs of their own.
func TestSnapshotPairSet(t *testing.T) {
	got := collectSnapshotTypes(loadRepoPasses(t))
	want := []string{
		"repro/internal/cascade.CascadeOf",
		"repro/internal/dsp.Filter",
		"repro/internal/edge.DetectorOf",
		"repro/internal/nn.Network",
		"repro/internal/serve.Session",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot pair set changed:\n got  %v\n want %v", got, want)
	}
}

// TestHotpathAllocGateFunctionsAnnotated pins the core guarantee the
// ISSUE names: the entry points the AllocsPerRun tests measure are all
// in the annotated set, so the static rule and the dynamic gates watch
// the same functions.
func TestHotpathAllocGateFunctionsAnnotated(t *testing.T) {
	annotated := annotatedFunctions(t)
	for _, entry := range []string{
		"internal/edge.DetectorOf.Push",   // edge alloc gate
		"internal/quant.QNetwork.Predict", // quant alloc gate
		"internal/nn.Network.Predict",     // nn alloc gate
	} {
		if !annotated[entry] {
			t.Errorf("alloc-gated entry point %s is not annotated //fallvet:hotpath", entry)
		}
	}
}
