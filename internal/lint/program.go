package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// Whole-program view (DESIGN.md §13). fallvet v1 judged one function
// body at a time; the v2 analyzers (hottrans, snapshot) need to see
// across call boundaries: a hot path is only alloc-free if everything
// it can reach is, and a snapshot is only complete if every method its
// writers delegate to is accounted for. buildProgram indexes every
// function declared in the analyzed packages into a call graph:
//
//   - direct calls and concrete-receiver method calls are resolved by
//     the callee's package-qualified name, which is stable even though
//     the source importer materialises a separate *types.Package for a
//     package that is both analyzed and imported;
//   - interface method calls are devirtualised conservatively over the
//     class hierarchy: every analyzed method with the same name and
//     arity is a possible callee (sound over-approximation — external
//     implementations and name coincidences are the documented limits);
//   - a body-less function is indexed as a leaf with no edges when
//     its assembly TEXT symbol is a provable leaf (asmleaf.go);
//   - calls through function values, calls into packages outside the
//     analyzed set (except the no-alloc stdlib allowlist), calls to
//     body-less functions that are not provable leaves, and interface
//     calls with no analyzed implementation stay unresolved and
//     surface as conservative diagnostics when a hot path can reach
//     them.
//
// On top of the graph, a may-allocate effect is computed bottom-up to
// a fixed point: a function is dirty when its own body contains an
// allocating construct, when it contains an unresolved call, or when
// any non-cold callee is dirty. //fallvet:cold prunes a callee out of
// the effect entirely (justified panic guards and warm-up paths);
// //fallvet:ignore hottrans on a line prunes that line's constructs
// and call edges (justified devirtualisation over-approximations).

// extNoAlloc lists packages outside the analyzed set whose functions
// are trusted never to allocate. Deliberately tiny: pure arithmetic
// only.
var extNoAlloc = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// witness is one concrete reason a function is not provably
// alloc-free. Positions are rendered base-name-relative so messages
// stay machine-independent (they key baseline diffs).
type witness struct {
	pos  token.Position
	what string
}

func (w *witness) String() string {
	return fmt.Sprintf("%s (%s:%d)", w.what, path.Base(filepath2slash(w.pos.Filename)), w.pos.Line)
}

func filepath2slash(p string) string { return strings.ReplaceAll(p, "\\", "/") }

// callSite is one call in a function body, in source order.
type callSite struct {
	pos     token.Pos
	targets []*funcInfo // resolved analyzed callees (several under CHA)
	// unresolved, when non-empty, says why the call cannot be proven
	// alloc-free (function value, external package, no implementation).
	unresolved string
}

// funcInfo is one analyzed function or method in the program index.
type funcInfo struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	hot  bool // //fallvet:hotpath
	cold bool // //fallvet:cold

	sites []callSite
	alloc *witness // first allocating construct in the body, or nil
	dirty bool     // not provably alloc-free, own body or reachable
}

// name is the short display form used in messages: "nn.Network.Predict".
func (fi *funcInfo) name() string {
	return path.Base(fi.pkg.Path) + "." + funcDisplayName(fi.decl)
}

// key is the program-wide identity used by the audit tests:
// "repro/internal/nn.Network.Predict".
func (fi *funcInfo) key() string {
	return fi.pkg.Path + "." + funcDisplayName(fi.decl)
}

// program is the whole-program index shared by every pass of one run.
type program struct {
	paths   map[string]bool      // import paths of the analyzed packages
	funcs   map[string]*funcInfo // by types.Func.FullName()
	byName  map[string][]*funcInfo
	byDecl  map[*ast.FuncDecl]*funcInfo
	ordered []*funcInfo // deterministic build order
	// noBody holds the body-less functions that are not provable
	// assembly leaves (asmleaf.go), by types.Func.FullName().
	noBody map[string]bool
}

// buildProgram indexes the passes' functions, scans every body for
// allocation effects and call edges, and propagates dirtiness to a
// fixed point. Directives must already be collected on every pass.
func buildProgram(passes []*pass) *program {
	prog := &program{
		paths:  map[string]bool{},
		funcs:  map[string]*funcInfo{},
		byName: map[string][]*funcInfo{},
		byDecl: map[*ast.FuncDecl]*funcInfo{},
		noBody: map[string]bool{},
	}
	for _, p := range passes {
		prog.paths[p.pkg.Path] = true
	}
	for _, p := range passes {
		hot := map[*ast.FuncDecl]bool{}
		for _, fd := range p.dirs.hotpath {
			hot[fd] = true
		}
		var leaves map[string]bool // read on the first body-less function
		for _, f := range p.pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := p.pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if fd.Body == nil {
					// Implemented in assembly: indexed, with no call
					// edges and no allocation, only as a proven leaf.
					if leaves == nil {
						leaves = asmLeaves(p.pkg.AsmFiles)
					}
					if fd.Recv != nil || !leaves[fd.Name.Name] {
						prog.noBody[fn.FullName()] = true
						continue
					}
				}
				fi := &funcInfo{fn: fn, decl: fd, pkg: p.pkg, hot: hot[fd]}
				if _, cold := p.dirs.cold[fd]; cold {
					fi.cold = true
				}
				prog.funcs[fn.FullName()] = fi
				prog.byDecl[fd] = fi
				if fd.Recv != nil {
					prog.byName[fd.Name.Name] = append(prog.byName[fd.Name.Name], fi)
				}
				prog.ordered = append(prog.ordered, fi)
			}
		}
	}
	for _, p := range passes {
		for _, f := range p.pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fi := prog.byDecl[fd]; fi != nil {
						scanEffects(p, prog, fi)
					}
				}
			}
		}
	}
	prog.propagate()
	return prog
}

// propagate computes the may-allocate fixed point over the call graph.
func (prog *program) propagate() {
	rev := map[*funcInfo][]*funcInfo{}
	var queue []*funcInfo
	for _, fi := range prog.ordered {
		base := fi.alloc != nil
		for i := range fi.sites {
			if fi.sites[i].unresolved != "" {
				base = true
			}
			for _, t := range fi.sites[i].targets {
				if !t.cold {
					rev[t] = append(rev[t], fi)
				}
			}
		}
		if base {
			fi.dirty = true
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		for _, caller := range rev[t] {
			if !caller.dirty {
				caller.dirty = true
				queue = append(queue, caller)
			}
		}
	}
}

// chain renders the path from a dirty callee down to its concrete
// witness: "edge.clampFull → nn.badInput: fmt.Sprintf allocates
// (errors.go:12)". Deterministic: sites are scanned in body order.
func chain(t *funcInfo) string {
	var names []string
	seen := map[*funcInfo]bool{}
	cur := t
	for {
		if seen[cur] {
			return strings.Join(names, " → ") + ": recursive cycle"
		}
		seen[cur] = true
		names = append(names, cur.name())
		if cur.alloc != nil {
			return fmt.Sprintf("%s: %s", strings.Join(names, " → "), cur.alloc)
		}
		var next *funcInfo
		for i := range cur.sites {
			s := &cur.sites[i]
			if s.unresolved != "" {
				pos := cur.pkg.Fset.Position(s.pos)
				w := witness{pos: pos, what: s.unresolved}
				return fmt.Sprintf("%s: %s", strings.Join(names, " → "), &w)
			}
			for _, tt := range s.targets {
				if !tt.cold && tt.dirty {
					next = tt
					break
				}
			}
			if next != nil {
				break
			}
		}
		if next == nil {
			return strings.Join(names, " → ") + ": not provably alloc-free"
		}
		cur = next
	}
}

// scanEffects fills fi.alloc and fi.sites from the function body. A
// line suppressed with //fallvet:ignore hottrans (or a warm-up line
// already justified with //fallvet:ignore hotpath) contributes neither
// constructs nor call edges — the justification cuts the edge, so the
// exemption does not re-surface at every transitive caller.
func scanEffects(p *pass, prog *program, fi *funcInfo) {
	if fi.decl.Body == nil {
		return // an assembly leaf: no calls, no allocation
	}
	info := p.pkg.Info
	exempt := func(pos token.Pos) bool {
		ps := p.pkg.Fset.Position(pos)
		return p.dirs.ignored(ps.Filename, ps.Line, "hottrans") ||
			p.dirs.ignored(ps.Filename, ps.Line, "hotpath")
	}
	setAlloc := func(pos token.Pos, what string) {
		if fi.alloc == nil && !exempt(pos) {
			ps := p.pkg.Fset.Position(pos)
			fi.alloc = &witness{pos: ps, what: what}
		}
	}
	var sig *types.Signature
	if s, ok := fi.fn.Type().(*types.Signature); ok {
		sig = s
	}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			setAlloc(n.Pos(), "closure literal allocates")
			return false
		case *ast.GoStmt:
			setAlloc(n.Pos(), "goroutine spawn allocates")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := unparen(n.X).(*ast.CompositeLit); ok {
					setAlloc(n.Pos(), "&"+typeLabel(info, cl)+" composite literal escapes")
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					setAlloc(n.Pos(), typeLabel(info, n)+" composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isRuntimeString(info, n) {
				setAlloc(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info.TypeOf(n.Lhs[0])) {
				setAlloc(n.Pos(), "string += allocates")
			}
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if boxes(info, info.TypeOf(n.Lhs[i]), n.Rhs[i]) {
						setAlloc(n.Rhs[i].Pos(), "assignment boxes into interface")
					}
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && len(n.Results) == sig.Results().Len() {
				for i, res := range n.Results {
					if boxes(info, sig.Results().At(i).Type(), res) {
						setAlloc(res.Pos(), "return boxes into interface")
					}
				}
			}
		case *ast.CallExpr:
			if builtinName(p.pkg.Info, n) == "panic" {
				// panic is terminal: everything evaluated to build its
				// argument (Sprintf'd messages, boxing) runs only on
				// the failing branch, off the steady state.
				return false
			}
			scanCall(p, prog, fi, n, setAlloc, exempt)
		}
		return true
	})
}

// scanCall classifies one call: allocating construct, resolved edge,
// or unresolved.
func scanCall(p *pass, prog *program, fi *funcInfo, call *ast.CallExpr, setAlloc func(token.Pos, string), exempt func(token.Pos) bool) {
	info := p.pkg.Info
	switch builtinName(info, call) {
	case "append":
		setAlloc(call.Pos(), "append may grow a heap slice")
		return
	case "make":
		setAlloc(call.Pos(), "make allocates")
		return
	case "new":
		setAlloc(call.Pos(), "new allocates")
		return
	case "panic":
		return // terminal: the boxed argument is off the steady state
	case "":
	default:
		return // len, cap, copy, min, ... never allocate
	}

	// Conversion T(x): only interface boxing is an allocation here.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && boxes(info, tv.Type, call.Args[0]) {
			setAlloc(call.Pos(), "conversion boxes into interface")
		}
		return
	}

	if exempt(call.Pos()) {
		return
	}

	addSite := func(s callSite) { fi.sites = append(fi.sites, s) }

	fn := calleeFunc(info, call)
	switch {
	case fn == nil:
		addSite(callSite{pos: call.Pos(),
			unresolved: "call through a function value cannot be proven alloc-free; devirtualise it or restructure"})
	case fn.Pkg() == nil:
		// Universe-scope methods: (error).Error is the practical case.
		addSite(callSite{pos: call.Pos(),
			unresolved: fmt.Sprintf("call to (%s).%s cannot be proven alloc-free", "error", fn.Name())})
	case fn.Pkg().Path() == "fmt" && allocFmt[fn.Name()]:
		setAlloc(call.Pos(), "fmt."+fn.Name()+" allocates its result")
	default:
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && isInterface(sig.Recv().Type()) {
			// Interface dispatch: devirtualise over every analyzed
			// method with the same name and arity.
			cands := chaCandidates(prog, fn, sig)
			if len(cands) == 0 {
				addSite(callSite{pos: call.Pos(), unresolved: fmt.Sprintf(
					"interface call %s.%s has no implementation in the analyzed packages; run on ./... or restructure",
					recvLabel(sig), fn.Name())})
			} else {
				addSite(callSite{pos: call.Pos(), targets: cands})
			}
		} else if target, ok := prog.funcs[fn.FullName()]; ok {
			addSite(callSite{pos: call.Pos(), targets: []*funcInfo{target}})
		} else if prog.noBody[fn.FullName()] {
			addSite(callSite{pos: call.Pos(), unresolved: fmt.Sprintf(
				"call to %s.%s has no Go body and its assembly is not a provable leaf (NOSPLIT, no CALL, no jump out of its body)",
				fn.Pkg().Name(), fn.Name())})
		} else if !extNoAlloc[fn.Pkg().Path()] {
			addSite(callSite{pos: call.Pos(), unresolved: fmt.Sprintf(
				"call to %s.%s is outside the analyzed packages and cannot be proven alloc-free",
				fn.Pkg().Name(), fn.Name())})
		}
	}

	// Implicit boxing at the call boundary, resolved or not.
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsValue() {
		return
	}
	csig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := csig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case csig.Variadic() && i >= params.Len()-1:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxes(info, pt, arg) {
			setAlloc(arg.Pos(), "argument boxed into interface parameter")
		}
	}
}

func recvLabel(sig *types.Signature) string {
	t := sig.Recv().Type()
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Name() + "." + named.Obj().Name()
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// chaCandidates lists every analyzed method that could implement the
// abstract method m: same name, same parameter and result arity. The
// name+arity match is the documented devirtualisation limit — it can
// pull in a method of an unrelated type, which is conservative (more
// edges, never fewer).
func chaCandidates(prog *program, m *types.Func, msig *types.Signature) []*funcInfo {
	var out []*funcInfo
	for _, fi := range prog.byName[m.Name()] {
		fsig, ok := fi.fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		if fsig.Params().Len() == msig.Params().Len() && fsig.Results().Len() == msig.Results().Len() {
			out = append(out, fi)
		}
	}
	return out
}
