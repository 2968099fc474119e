package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadError is a structured package-loading failure: which package,
// where on disk, and the parse or type-check error underneath. Callers
// that fan out over many packages can unwrap it to decide whether the
// failure is theirs (a broken fixture) or the target's (code that does
// not compile).
type LoadError struct {
	ImportPath string
	Dir        string
	Err        error
}

func (e *LoadError) Error() string {
	return fmt.Sprintf("loading %s (%s): %v", e.ImportPath, e.Dir, e.Err)
}

func (e *LoadError) Unwrap() error { return e.Err }

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	Path  string // import path, e.g. "repro/internal/nn"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// AsmFiles are the paths of the package's .s files in the build,
	// where its body-less functions are implemented.
	AsmFiles []string
	Types    *types.Package
	Info     *types.Info
}

// loader parses and type-checks packages with a shared FileSet and a
// shared source importer, so stdlib and in-module dependencies are
// type-checked once and cached across the run. The "source" compiler
// importer resolves imports from source via go/build, which falls back
// to the go command in module mode — no golang.org/x/tools required.
type loader struct {
	fset *token.FileSet
	imp  types.Importer
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// load parses the non-test .go files of dir and type-checks them as
// importPath, and records the paths of its .s files. Files excluded
// by build constraints (//go:build lines, GOOS/GOARCH filename
// suffixes) are skipped the way the go tool skips them. Returns nil (no error) for directories with no Go files
// in the build — including test-only packages, whose _test.go files
// the linter never analyzes. Failures come back as *LoadError, never
// a panic: a package that does not parse or type-check is a result,
// not a crash.
func (l *loader) load(dir, importPath string) (*Package, error) {
	fail := func(err error) (*Package, error) {
		return nil, &LoadError{ImportPath: importPath, Dir: dir, Err: err}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fail(err)
	}
	ctxt := build.Default
	var names, asm []string
	for _, e := range entries {
		name := e.Name()
		isAsm := strings.HasSuffix(name, ".s")
		if e.IsDir() || !(isAsm || strings.HasSuffix(name, ".go")) ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		// MatchFile reads the file header and applies the same build
		// constraint logic as the go tool, so a file tagged out of the
		// build cannot poison the type check with symbols (or syntax)
		// that the real build never sees.
		match, err := ctxt.MatchFile(dir, name)
		if err != nil {
			return fail(fmt.Errorf("reading build constraints of %s: %w", name, err))
		}
		if !match {
			continue
		}
		if isAsm {
			asm = append(asm, filepath.Join(dir, name))
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return fail(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return fail(fmt.Errorf("type-checking: %w", err))
	}
	sort.Strings(asm)
	return &Package{
		Path:     importPath,
		Dir:      dir,
		Fset:     l.fset,
		Files:    files,
		AsmFiles: asm,
		Types:    tpkg,
		Info:     info,
	}, nil
}

// moduleRoot walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func moduleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// skipDir reports whether a directory is never part of the analyzed
// module: fixtures, VCS metadata, and underscore/dot-prefixed trees.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// expand resolves go-style package patterns relative to dir into
// (directory, import path) targets. Supported forms: "./...",
// "sub/...", and plain directory paths.
func expand(dir, root, modPath string, patterns []string) ([][2]string, error) {
	var targets [][2]string
	seen := map[string]bool{}
	add := func(d string) error {
		d, err := filepath.Abs(d)
		if err != nil {
			return err
		}
		if seen[d] {
			return nil
		}
		seen[d] = true
		rel, err := filepath.Rel(root, d)
		if err != nil || strings.HasPrefix(rel, "..") {
			return fmt.Errorf("package directory %s is outside module root %s", d, root)
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		targets = append(targets, [2]string{d, importPath})
		return nil
	}
	walk := func(base string) error {
		return filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != base && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return add(path)
		})
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := walk(root); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(dir, strings.TrimSuffix(pat, "/..."))
			if err := walk(base); err != nil {
				return nil, err
			}
		default:
			if err := add(filepath.Join(dir, pat)); err != nil {
				return nil, err
			}
		}
	}
	return targets, nil
}

// LintPatterns loads the packages matching the go-style patterns
// (resolved relative to dir) and runs every analyzer. It returns the
// diagnostics and the number of packages analyzed.
func LintPatterns(dir string, patterns []string, cfg Config) ([]Diagnostic, int, error) {
	root, modPath, err := moduleRoot(dir)
	if err != nil {
		return nil, 0, err
	}
	targets, err := expand(dir, root, modPath, patterns)
	if err != nil {
		return nil, 0, err
	}
	l := newLoader()
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := l.load(t[0], t[1])
		if err != nil {
			return nil, 0, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return Run(pkgs, cfg), len(pkgs), nil
}
