package lint

import (
	"go/ast"
	"go/types"
	"path"
	"sort"
)

// snapshot verifies snapshot-completeness: for every type that has
// both a snapshot writer and a restore reader, every struct field must
// be touched by the writers' (same-package, transitive) call closure
// or carry //fallvet:derived <reason>. The PR-7/8 crash-replay
// guarantees are exactly as strong as the serialized field set — a new
// field that nobody serializes silently breaks bit-identical restore,
// and this analyzer is what makes adding such a field a build failure
// instead of a latent soak flake.
//
// The check recurses into same-package named struct types reachable
// through the pair's fields (unwrapping pointers, slices and arrays),
// so helper rings and run-length trackers are held to the same
// standard; fields of types from other packages are that package's own
// pair's responsibility (dsp.Filter).

var snapshotAnalyzer = &Analyzer{
	Name: "snapshot",
	Doc:  "every field of a snapshot/restore pair is serialized or marked //fallvet:derived",
	run:  runSnapshot,
}

// snapshotWriters / snapshotReaders are the repo's serialization
// method vocabulary. A type needs one of each to be checked.
var snapshotWriters = map[string]bool{
	"Snapshot":           true,
	"AppendSnapshot":     true,
	"AppendState":        true,
	"appendStatePayload": true,
	"appendState":        true,
	"takeSnapshot":       true,
}

var snapshotReaders = map[string]bool{
	"Restore":       true,
	"RestoreFresh":  true,
	"ReadState":     true,
	"SetState":      true,
	"setState":      true,
	"readState":     true,
	"restoreReplay": true,
}

// snapPair is one detected writer/reader pair on a named struct type.
type snapPair struct {
	named   *types.Named
	writers []*funcInfo // in deterministic program order
}

// snapshotPairs detects the pairs declared in p's package.
func snapshotPairs(p *pass) []*snapPair {
	byType := map[*types.Named]*snapPair{}
	readers := map[*types.Named]bool{}
	var order []*types.Named
	for _, fi := range p.prog.ordered {
		if fi.pkg != p.pkg || fi.decl.Recv == nil {
			continue
		}
		named := recvNamed(fi.fn)
		if named == nil {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		name := fi.decl.Name.Name
		if snapshotWriters[name] {
			sp := byType[named]
			if sp == nil {
				sp = &snapPair{named: named}
				byType[named] = sp
				order = append(order, named)
			}
			sp.writers = append(sp.writers, fi)
		}
		if snapshotReaders[name] {
			readers[named] = true
		}
	}
	var out []*snapPair
	for _, named := range order {
		if readers[named] {
			out = append(out, byType[named])
		}
	}
	return out
}

// recvNamed returns the named receiver type of a method, unwrapping a
// pointer receiver.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	if named != nil {
		// Each method of a generic type carries its own receiver
		// instantiation (DetectorOf[S] with a per-method S); Origin
		// joins them back onto the one declared type so writer and
		// reader pair up. Identity for non-generic types.
		named = named.Origin()
	}
	return named
}

func runSnapshot(p *pass) {
	usedDerived := map[*ast.Field]bool{}
	for _, sp := range snapshotPairs(p) {
		checkSnapshotPair(p, sp, usedDerived)
	}
	// Stale //fallvet:derived: a justification on a field no snapshot
	// pair checks is dead weight that reads like a guarantee.
	var stale []*ast.Field
	for fld := range p.dirs.derived {
		if !usedDerived[fld] {
			stale = append(stale, fld)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].Pos() < stale[j].Pos() })
	for _, fld := range stale {
		p.report("snapshot", fld.Pos(),
			"stale //fallvet:derived: field is not part of any snapshot-checked struct in this package")
	}
}

func checkSnapshotPair(p *pass, sp *snapPair, usedDerived map[*ast.Field]bool) {
	covered := writerFieldUses(p, sp.writers)
	writer := sp.writers[0].decl.Name.Name
	tname := path.Base(p.pkg.Path) + "." + sp.named.Obj().Name()

	// Walk the pair's struct and every same-package struct reachable
	// through its fields, pruning at //fallvet:derived: a field that is
	// declared rebuilt-not-serialized exempts everything underneath it.
	seen := map[*types.Named]bool{}
	queue := []*types.Named{sp.named}
	for len(queue) > 0 {
		named := queue[0]
		queue = queue[1:]
		if seen[named] {
			continue
		}
		seen[named] = true
		stc, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		fields := structASTFields(p, named)
		if fields == nil {
			continue // declared via an unexported alias or generated form
		}
		for i := 0; i < stc.NumFields(); i++ {
			fv := stc.Field(i)
			af := fields[i]
			if af == nil || unserializableField(fv.Type()) {
				continue // mutexes, atomics, channels, funcs: never image state
			}
			_, derived := p.dirs.derived[af]
			if derived {
				usedDerived[af] = true
			} else if next := fieldStruct(p, fv.Type()); next != nil {
				queue = append(queue, next)
			}
			switch {
			case covered[fv] && derived:
				p.report("snapshot", af.Pos(),
					"redundant //fallvet:derived on %s.%s: the field is referenced by %s's snapshot writers",
					named.Obj().Name(), fv.Name(), tname)
			case !covered[fv] && !derived:
				p.report("snapshot", af.Pos(),
					"field %s.%s is not serialized by %s's snapshot writer %s nor marked //fallvet:derived <reason>",
					named.Obj().Name(), fv.Name(), tname, writer)
			}
		}
	}
}

// unserializableField reports whether a field's type cannot be part of
// a byte-image snapshot by construction — synchronisation primitives,
// atomics, channels and function values. Requiring //fallvet:derived
// on those would be pure noise.
func unserializableField(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			if named, ok := t.(*types.Named); ok {
				if pkg := named.Obj().Pkg(); pkg != nil {
					if p := pkg.Path(); p == "sync" || p == "sync/atomic" {
						return true
					}
				}
			}
			switch t.Underlying().(type) {
			case *types.Signature, *types.Chan:
				return true
			}
			return false
		}
	}
}

// writerFieldUses collects every struct-field object referenced inside
// the writers' bodies and the bodies of same-package functions they
// transitively call. A field the writers never touch is, by
// construction, absent from the serialized image.
func writerFieldUses(p *pass, writers []*funcInfo) map[*types.Var]bool {
	covered := map[*types.Var]bool{}
	seen := map[*funcInfo]bool{}
	queue := append([]*funcInfo(nil), writers...)
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		if seen[fi] || fi.pkg.Path != p.pkg.Path || fi.decl.Body == nil {
			continue
		}
		seen[fi] = true
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := p.pkg.Info.Uses[id].(*types.Var); ok && v.IsField() {
				// Field objects seen through a generic receiver are
				// per-instantiation; Origin maps them to the declared
				// field the struct walk below iterates over.
				covered[v.Origin()] = true
			}
			return true
		})
		for i := range fi.sites {
			queue = append(queue, fi.sites[i].targets...)
		}
	}
	return covered
}

// fieldStruct unwraps pointers, slices and arrays and returns the
// same-package named struct type underneath, if any.
func fieldStruct(p *pass, t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != p.pkg.Path {
				return nil
			}
			if _, ok := named.Underlying().(*types.Struct); !ok {
				return nil
			}
			// Same-package generic helpers appear as per-use
			// instantiations; walk the declared type once.
			return named.Origin()
		}
	}
}

// structASTFields maps the type-checker's field order of named's
// struct to the declaring *ast.Field nodes (one entry per field; an
// embedded field maps to its single ast.Field). Returns nil when the
// declaration is not found in the package's files.
func structASTFields(p *pass, named *types.Named) []*ast.Field {
	for _, f := range p.pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || p.pkg.Info.Defs[ts.Name] != named.Obj() {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					return nil
				}
				var out []*ast.Field
				for _, fld := range st.Fields.List {
					n := len(fld.Names)
					if n == 0 {
						n = 1 // embedded
					}
					for i := 0; i < n; i++ {
						out = append(out, fld)
					}
				}
				return out
			}
		}
	}
	return nil
}

// collectSnapshotTypes lists every detected pair across the passes as
// "importPath.TypeName", sorted. The audit test pins the expected set.
func collectSnapshotTypes(passes []*pass) []string {
	var out []string
	for _, p := range passes {
		for _, sp := range snapshotPairs(p) {
			out = append(out, p.pkg.Path+"."+sp.named.Obj().Name())
		}
	}
	sort.Strings(out)
	return out
}
