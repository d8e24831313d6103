package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak reports go statements with no visible termination path. A
// long-lived EclipseMR process (a cluster node, the driver) spawns
// goroutines for heartbeats, spill senders, journal flushers and map
// tasks; any one of them that cannot be told to stop is a leak that
// accretes across jobs and, under chaos restarts, across node lifetimes.
//
// The check is evidence-based and syntactic. A spawned body passes when
// it (or, failing that, a directly called module function) shows one of:
//
//   - a caller-supplied context.Context — a parameter or captured
//     variable, not a ctx dug out of a struct field and not one minted
//     inside the body;
//   - a channel receive or a range over a channel (a close unblocks it);
//   - a select statement (cancellation or shutdown cases live there);
//   - a sync.WaitGroup Done call (a join point exists).
//
// Anything else needs a //lint:ignore goroleak <reason> stating why the
// goroutine's lifetime is actually bounded.
func GoroLeak() *Analyzer {
	return &Analyzer{
		Name: "goroleak",
		Doc:  "go statement with no visible termination path",
		Run:  runGoroLeak,
	}
}

// declBody locates the parsed body of a declared function anywhere in the
// unit, by stable funcKey.
type declBody struct {
	pkg  *Package
	body *ast.BlockStmt
}

// Bodies come from every checked module package (Unit.Context), not just
// the analysis targets: evidence must not depend on which packages a
// partial run happened to select.
func unitDeclBodies(u *Unit) map[string]declBody {
	decls := make(map[string]declBody)
	for _, p := range u.Context() {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					decls[funcKey(fn)] = declBody{pkg: p, body: fd.Body}
				}
			}
		}
	}
	return decls
}

func runGoroLeak(u *Unit) []Finding {
	decls := unitDeclBodies(u)
	var findings []Finding
	for _, p := range u.Pkgs {
		w := &goroWalker{u: u, pkg: p, decls: decls}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						w.goStmt(g)
					}
					return true // arguments and nested spawns are still visited
				})
			}
		}
		findings = append(findings, w.findings...)
	}
	return findings
}

// goroWalker checks the go statements of one package.
type goroWalker struct {
	u        *Unit
	pkg      *Package
	decls    map[string]declBody
	findings []Finding
}

// goStmt checks one go statement for termination evidence.
func (w *goroWalker) goStmt(g *ast.GoStmt) {
	var body *ast.BlockStmt
	info := w.pkg.Info
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		if fn := calleeFunc(info, g.Call); fn != nil {
			if db, ok := w.decls[funcKey(fn)]; ok {
				body = db.body
				info = db.pkg.Info
			}
		}
	}
	if body == nil {
		w.findings = append(w.findings, Finding{
			Pos:      w.u.Fset.Position(g.Pos()),
			Analyzer: "goroleak",
			Message:  "goroutine body is not statically visible; no termination path is provable — wrap it or //lint:ignore goroleak <reason>",
		})
		return
	}
	if terminationEvidence(info, body) {
		return
	}
	// One level of wrapper-following: a spawn whose body just delegates
	// to a module function inherits that callee's evidence.
	if w.calleeEvidence(info, body) {
		return
	}
	w.findings = append(w.findings, Finding{
		Pos:      w.u.Fset.Position(g.Pos()),
		Analyzer: "goroleak",
		Message:  "goroutine has no visible termination path (caller ctx, channel receive/range, select, or WaitGroup.Done); add one or //lint:ignore goroleak <reason>",
	})
}

// calleeEvidence scans the bodies of module functions called directly in
// body (one level, no recursion) for termination evidence.
func (w *goroWalker) calleeEvidence(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		if db, ok := w.decls[funcKey(fn)]; ok && terminationEvidence(db.pkg.Info, db.body) {
			found = true
			return false
		}
		return true
	})
	return found
}

// terminationEvidence reports whether a goroutine body shows any of the
// accepted termination paths. Nested function literals are not scanned:
// a select buried in a callback the body registers somewhere proves
// nothing about the body's own loop, and a deferred receive only runs
// once the body already finished.
func terminationEvidence(info *types.Info, body *ast.BlockStmt) bool {
	// Identifiers appearing as the Sel of a selector are field/method
	// accesses, not direct bindings; a ctx fished out of a struct field
	// is not caller-supplied evidence (and is a ctxflow finding anyway).
	selNames := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			selNames[sel.Sel] = true
		}
		return true
	})
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil &&
				fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Done" {
				found = true
			}
		case *ast.Ident:
			if selNames[n] {
				return true
			}
			obj, ok := info.Uses[n].(*types.Var)
			if !ok || !isContextType(obj.Type()) {
				return true
			}
			// Caller-supplied means defined outside the body: a parameter
			// of the spawned function or a captured variable, not a ctx
			// created inside the goroutine itself.
			if obj.Pos() < body.Pos() || obj.Pos() >= body.End() {
				found = true
			}
		}
		return !found
	})
	return found
}
