package lint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixtureLoader is shared across tests so the stdlib packages the
// fixtures import are parsed and type-checked once per test binary.
var fixtureLoader = newLoader()

func loadFixture(t *testing.T, rel string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(rel))
	pkg, err := fixtureLoader.load(dir, "fixture/"+rel)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rel, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s contains no Go files", rel)
	}
	return pkg
}

func fixtureConfig(deterministic, par bool) Config {
	return Config{
		Deterministic: func(string) bool { return deterministic },
		Par:           func(string) bool { return par },
	}
}

// want is one expected diagnostic: a pattern from a // want `regex`
// comment that must match at least one diagnostic on its line.
type want struct {
	rx      *regexp.Regexp
	matched bool
}

var wantRx = regexp.MustCompile("`([^`]+)`")

// collectWants scans the fixture sources for // want `regex` comments
// (one line may carry several backtick-quoted patterns) and returns
// them keyed by "file.go:line".
func collectWants(t *testing.T, dir string) map[string][]*want {
	t.Helper()
	wants := map[string][]*want{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			key := e.Name() + ":" + strconv.Itoa(i+1)
			for _, m := range wantRx.FindAllStringSubmatch(line[idx:], -1) {
				rx, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", key, m[1], err)
				}
				wants[key] = append(wants[key], &want{rx: rx})
			}
		}
	}
	return wants
}

// checkFixture lints one fixture package and matches its diagnostics
// against its want comments in both directions: every diagnostic must
// be wanted, every want must be produced.
func checkFixture(t *testing.T, rel string, cfg Config) {
	t.Helper()
	pkg := loadFixture(t, rel)
	diags := Run([]*Package{pkg}, cfg)
	wants := collectWants(t, pkg.Dir)
	for _, d := range diags {
		key := filepath.Base(d.File) + ":" + strconv.Itoa(d.Line)
		text := d.Analyzer + ": " + d.Message
		ok := false
		for _, w := range wants[key] {
			if w.rx.MatchString(text) {
				w.matched = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s", key, text)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("missing diagnostic at %s matching %q", key, w.rx)
			}
		}
	}
}

func TestAnalyzerFixtures(t *testing.T) {
	for _, tc := range []struct {
		rel      string
		det, par bool
	}{
		// determinism fires only in deterministic packages, so its
		// fixtures (and the suppression fixture, which silences
		// determinism findings) are linted with Deterministic=true.
		// redorder is repo-wide: its fixtures run with
		// Deterministic=false to pin that the confinement no longer
		// depends on the deterministic scoping.
		{"determinism/bad", true, false},
		{"determinism/good", true, false},
		{"hotpath/bad", false, false},
		{"hotpath/good", false, false},
		{"checkedio/bad", false, false},
		{"checkedio/good", false, false},
		{"redorder/bad", false, false},
		{"redorder/good", false, false},
		{"redorder/serve", false, false},
		{"suppress", true, false},
		{"hottrans/bad", false, false},
		{"hottrans/good", false, false},
		{"hottrans/asm", false, false},
		{"snapshot/bad", false, false},
		{"snapshot/good", false, false},
		{"exhaustive/bad", false, false},
		{"exhaustive/good", false, false},
		// floatdet is scoped like determinism: deterministic packages only.
		{"floatdet/bad", true, false},
		{"floatdet/good", true, false},
		// Generic instantiation coverage: the same three whole-program
		// analyzers again, this time with every function, method and
		// pair type behind a scalar type parameter.
		{"floatdet/genericbad", true, false},
		{"floatdet/genericgood", true, false},
		{"hottrans/genericbad", false, false},
		{"hottrans/genericgood", false, false},
		{"snapshot/genericbad", false, false},
		{"snapshot/genericgood", false, false},
	} {
		t.Run(strings.ReplaceAll(tc.rel, "/", "_"), func(t *testing.T) {
			checkFixture(t, tc.rel, fixtureConfig(tc.det, tc.par))
		})
	}
}

// TestRedorderExemptInsidePar: the channel-heavy redorder fixture must
// be clean when the config marks its package as a sanctioned
// concurrency layer, the way DefaultConfig exempts internal/par.
func TestRedorderExemptInsidePar(t *testing.T) {
	pkg := loadFixture(t, "redorder/bad")
	diags := Run([]*Package{pkg}, fixtureConfig(true, true))
	if len(diags) != 0 {
		t.Fatalf("par-exempt package still has %d diagnostics, first: %s", len(diags), diags[0])
	}
}

// TestRedorderServeAllowlist drives the serving-runtime fixture through
// DefaultConfig's real path matching: under the import paths the repo
// actually uses for the supervised runtime its goroutines and channels
// are sanctioned, while a near-miss path (a package merely named like
// serve) gets the full set of diagnostics.
func TestRedorderServeAllowlist(t *testing.T) {
	cfg := DefaultConfig()
	for _, path := range []string{"repro/internal/serve", "repro/internal/guard", "repro/internal/par"} {
		pkg := loadFixture(t, "redorder/serve")
		pkg.Path = path
		if diags := Run([]*Package{pkg}, cfg); len(diags) != 0 {
			t.Errorf("%s: %d diagnostics on sanctioned concurrency, first: %s", path, len(diags), diags[0])
		}
	}
	for _, path := range []string{"repro/internal/servex", "repro/internal/serveur", "repro/cmd/fallserve", "repro/internal/eval"} {
		pkg := loadFixture(t, "redorder/serve")
		pkg.Path = path
		if diags := Run([]*Package{pkg}, cfg); len(diags) == 0 {
			t.Errorf("%s: no diagnostics outside the allowlist, want the full redorder set", path)
		}
	}
}

// TestDirectiveDiagnostics: malformed //fallvet: comments are reported
// by the unsuppressible "directive" pseudo-analyzer, in source order,
// each at the directive's own file:line:col — not at the enclosing
// declaration. (The conflict diagnostic is the one exception: it is
// about the function, so it anchors at the function.)
func TestDirectiveDiagnostics(t *testing.T) {
	pkg := loadFixture(t, "directives")
	diags := Run([]*Package{pkg}, fixtureConfig(false, false))
	want := []struct {
		line, col int
		substr    string
	}{
		{9, 1, "misplaced //fallvet:hotpath"},
		{12, 1, "unknown fallvet directive"},
		{15, 1, "no space allowed"},
		{18, 1, "usage //fallvet:ignore <rule> <reason...>"},
		{21, 1, `unknown rule "nosuchrule"`},
		{24, 1, "has no body"},
		{27, 1, "usage //fallvet:cold <reason...>"},
		{30, 1, "misplaced //fallvet:cold: must sit in a function's doc comment"},
		{33, 1, "misplaced //fallvet:derived: must sit on a struct field"},
		{37, 2, "usage //fallvet:derived <reason...>"},
		{46, 1, "conflicted is marked both //fallvet:hotpath and //fallvet:cold"},
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Log(d)
		}
		t.Fatalf("got %d directive diagnostics, want %d", len(diags), len(want))
	}
	for i, d := range diags {
		if d.Analyzer != "directive" {
			t.Errorf("diagnostic %d: analyzer %q, want directive", i, d.Analyzer)
		}
		if filepath.Base(d.File) != "directives.go" {
			t.Errorf("diagnostic %d: file %q, want directives.go", i, d.File)
		}
		if d.Line != want[i].line || d.Col != want[i].col {
			t.Errorf("diagnostic %d (%q): at %d:%d, want %d:%d",
				i, d.Message, d.Line, d.Col, want[i].line, want[i].col)
		}
		if !strings.Contains(d.Message, want[i].substr) {
			t.Errorf("diagnostic %d: %q does not mention %q", i, d.Message, want[i].substr)
		}
	}
}

// TestDiagnosticJSONRoundTrip pins the -json wire format: the field
// names cmd/fallvet emits, and lossless re-decoding.
func TestDiagnosticJSONRoundTrip(t *testing.T) {
	pkg := loadFixture(t, "checkedio/bad")
	diags := Run([]*Package{pkg}, fixtureConfig(false, false))
	if len(diags) == 0 {
		t.Fatal("checkedio/bad produced no diagnostics to encode")
	}
	data, err := json.MarshalIndent(diags, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back []Diagnostic
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, diags) {
		t.Errorf("JSON round trip changed the diagnostics:\n got %+v\nwant %+v", back, diags)
	}
	var raw []map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"file", "line", "col", "analyzer", "message"} {
		if _, ok := raw[0][field]; !ok {
			t.Errorf("JSON output is missing field %q", field)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "a/b.go", Line: 3, Col: 7, Analyzer: "hotpath", Message: "m"}
	if got, want := d.String(), "a/b.go:3:7: hotpath: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestDefaultConfigScoping pins the repo scoping: the deterministic
// packages match on import-path boundaries, and the concurrency
// allowlist is exactly internal/par, internal/serve and internal/guard.
func TestDefaultConfigScoping(t *testing.T) {
	cfg := DefaultConfig()
	for _, tc := range []struct {
		path string
		want bool
	}{
		{"repro/internal/nn", true},
		{"repro/internal/eval", true},
		{"repro/internal/quant", true},
		{"repro/internal/par", true},
		{"repro/internal/tensor", true},
		{"repro/internal/artifact", true},
		{"internal/nn", true},
		{"repro/internal/nnx", false}, // no partial-segment matches
		{"repro/internal/dataset", false},
		{"repro/internal/edge", false},
		{"repro/cmd/falltrain", false},
	} {
		if got := cfg.Deterministic(tc.path); got != tc.want {
			t.Errorf("Deterministic(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
	for _, tc := range []struct {
		path string
		want bool
	}{
		{"repro/internal/par", true},
		{"repro/internal/serve", true},
		{"repro/internal/guard", true},
		{"repro/internal/nn", false},
		{"repro/internal/servex", false}, // no partial-segment matches
		{"repro/cmd/fallserve", false},
	} {
		if got := cfg.Par(tc.path); got != tc.want {
			t.Errorf("Par(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

func TestStamp(t *testing.T) {
	if got, want := Stamp(), "v2/8-rules"; got != want {
		t.Errorf("Stamp() = %q, want %q", got, want)
	}
	names := make([]string, 0, len(Analyzers()))
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	wantNames := []string{"determinism", "hotpath", "hottrans", "checkedio",
		"redorder", "snapshot", "exhaustive", "floatdet"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("analyzer set %v, want %v", names, wantNames)
	}
}

// TestDedupeSuffixes: listing a package twice in an allowlist must not
// change matching, and the dedupe preserves first-occurrence order —
// a double-listed suffix cannot be double-counted by any future logic
// that iterates the list.
func TestDedupeSuffixes(t *testing.T) {
	got := dedupeSuffixes([]string{"internal/par", "internal/nn", "internal/par", "internal/serve", "internal/nn"})
	want := []string{"internal/par", "internal/nn", "internal/serve"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dedupeSuffixes = %v, want %v", got, want)
	}
	if out := dedupeSuffixes(nil); len(out) != 0 {
		t.Errorf("dedupeSuffixes(nil) = %v, want empty", out)
	}
}
