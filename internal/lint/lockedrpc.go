package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const transportPath = "eclipsemr/internal/transport"

// LockedRPC reports transport RPCs (and calls that transitively reach
// one) issued while a sync.Mutex or sync.RWMutex acquired in the same
// function is still held.
//
// Chord-style stabilization, dhtfs replication and cluster heartbeats all
// RPC their ring neighbors; doing so under a node mutex couples local
// lock hold times to remote nodes' responsiveness. Under chaos latency
// that is a tail-latency amplifier, and when two nodes call each other
// symmetrically it is a distributed deadlock. The project rule is: copy
// what you need, unlock, then call.
//
// The analyzer builds a module-wide call graph seeded at
// internal/transport's Call methods (both the Network interface method
// and every concrete implementation) and propagates "blocking" through
// module functions, so wrappers like a node's typed rpc helper are caught
// too. A call a function spawns with go blocks no caller, in the graph as
// at the spawn site. Lock tracking is per-function and syntactic: a finding means a
// Lock/RLock on some mutex expression textually precedes the call with no
// intervening Unlock on the straight-line path.
func LockedRPC() *Analyzer {
	return &Analyzer{
		Name: "lockedrpc",
		Doc:  "transport RPC issued while holding a sync mutex",
		Run:  runLockedRPC,
	}
}

// isTransportCallSeed reports whether fn is one of the root blocking
// RPCs: a method named Call declared in internal/transport.
func isTransportCallSeed(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == transportPath && fn.Name() == "Call"
}

// isSyncLockMethod classifies fn as a sync.Mutex/RWMutex lock or unlock
// method. acquire is true for Lock/RLock/TryLock/TryRLock.
func isSyncLockMethod(fn *types.Func) (acquire, release bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false, false
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return true, false
	case "Unlock", "RUnlock":
		return false, true
	}
	return false, false
}

// blockingSet computes, over the whole unit, the set of module functions
// that (transitively) issue a transport Call. The map value is a short
// human-readable chain ending at the transport seed, for messages.
func blockingSet(u *Unit) map[string]string {
	// Direct callees per declared function, by stable funcKey.
	callees := make(map[string][]*types.Func)
	decls := make(map[string]bool)
	for _, p := range u.Pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKey(fn)
				decls[key] = true
				var visit func(ast.Node) bool
				visit = func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.GoStmt:
						// The spawned call runs in its own lock context
						// (see lockWalker) and blocks no caller: only its
						// operands are evaluated here.
						for _, a := range n.Call.Args {
							ast.Inspect(a, visit)
						}
						if sel, ok := n.Call.Fun.(*ast.SelectorExpr); ok {
							ast.Inspect(sel.X, visit)
						}
						return false
					case *ast.CallExpr:
						if callee := calleeFunc(p.Info, n); callee != nil {
							callees[key] = append(callees[key], callee)
						}
					}
					return true
				}
				ast.Inspect(fd.Body, visit)
			}
		}
	}
	blocking := make(map[string]string)
	for changed := true; changed; {
		changed = false
		for key, calls := range callees {
			if _, done := blocking[key]; done {
				continue
			}
			for _, callee := range calls {
				ck := funcKey(callee)
				if isTransportCallSeed(callee) {
					blocking[key] = shortFuncName(ck)
					changed = true
					break
				}
				if chain, ok := blocking[ck]; ok && decls[ck] {
					blocking[key] = shortFuncName(ck) + " -> " + chain
					changed = true
					break
				}
			}
		}
	}
	return blocking
}

// shortFuncName strips the module path prefix out of a funcKey for
// readable messages: "(*eclipsemr/internal/cluster.Node).call" becomes
// "(*cluster.Node).call".
func shortFuncName(key string) string {
	key = strings.ReplaceAll(key, "eclipsemr/internal/", "")
	return strings.ReplaceAll(key, "eclipsemr/", "")
}

func runLockedRPC(u *Unit) []Finding {
	blocking := blockingSet(u)
	var findings []Finding
	onCall := func(w *lockWalker, call *ast.CallExpr, fn *types.Func, deferred bool) {
		if len(w.held) == 0 {
			return
		}
		key := funcKey(fn)
		chain, isBlocking := blocking[key]
		if !isBlocking && isTransportCallSeed(fn) {
			isBlocking, chain = true, ""
		}
		if !isBlocking {
			return
		}
		name := shortFuncName(key)
		via := ""
		if chain != "" {
			via = fmt.Sprintf(" (reaches %s)", chain)
		}
		for mutex, lk := range w.held {
			w.findings = append(w.findings, Finding{
				Pos:      w.u.Fset.Position(call.Pos()),
				Analyzer: "lockedrpc",
				Message: fmt.Sprintf(
					"transport RPC %s%s while holding %s (locked at line %d); release the mutex before network I/O",
					name, via, mutex, w.u.Fset.Position(lk.pos).Line),
			})
		}
	}
	for _, p := range u.Pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				w := newLockWalker(u, p, onCall, nil)
				w.stmts(fd.Body.List)
				findings = append(findings, w.findings...)
			}
		}
	}
	return findings
}

// heldLock is one mutex currently held on the walker's straight-line
// path: where it was locked, the receiver expression, and (when the
// receiver resolves to a named type's field, an embedded mutex, or a
// package-level var) its module-wide lock class for lockorder.
type heldLock struct {
	pos   token.Pos
	expr  string
	class string
}

// lockWalker simulates the straight-line lock state of one function body.
// Branch bodies are analyzed with a copy of the held set (locks acquired
// or released inside a branch do not leak past it); function literals run
// in their own empty lock context unless invoked or deferred in place.
//
// The walker itself only tracks state; analyzers observe it through two
// hooks. onCall fires for every resolved non-mutex call (with the current
// held set on w.held); onAcquire fires just before a Lock/RLock/TryLock
// is recorded, with the lock being taken and the set held before it.
type lockWalker struct {
	u         *Unit
	pkg       *Package
	held      map[string]heldLock // keyed by mutex expr
	onCall    func(w *lockWalker, call *ast.CallExpr, fn *types.Func, deferred bool)
	onAcquire func(w *lockWalker, call *ast.CallExpr, lk heldLock)
	findings  []Finding
}

func newLockWalker(u *Unit, p *Package,
	onCall func(*lockWalker, *ast.CallExpr, *types.Func, bool),
	onAcquire func(*lockWalker, *ast.CallExpr, heldLock)) *lockWalker {
	return &lockWalker{
		u: u, pkg: p,
		held:      make(map[string]heldLock),
		onCall:    onCall,
		onAcquire: onAcquire,
	}
}

func (w *lockWalker) clone() *lockWalker {
	c := newLockWalker(w.u, w.pkg, w.onCall, w.onAcquire)
	for k, v := range w.held {
		c.held[k] = v
	}
	return c
}

// branch analyzes a nested statement in a copied lock context and keeps
// its findings.
func (w *lockWalker) branch(stmts ...ast.Stmt) {
	c := w.clone()
	for _, s := range stmts {
		if s != nil {
			c.stmt(s)
		}
	}
	w.findings = append(w.findings, c.findings...)
}

func (w *lockWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *lockWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// A deferred Unlock keeps the mutex held to the end of the
		// function (by design); a deferred blocking call is evaluated at
		// return, conservatively treated as running under current locks.
		w.call(s.Call, true)
	case *ast.GoStmt:
		// The goroutine body runs in its own lock context; only the
		// argument expressions are evaluated here.
		for _, e := range s.Call.Args {
			w.expr(e)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.freshContext(lit)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.branch(s.Body)
		w.branch(s.Else)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.branch(s.Body, s.Post)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.branch(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branch(cc.Body...)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmt(s.Assign)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branch(cc.Body...)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.branch(append([]ast.Stmt{cc.Comm}, cc.Body...)...)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

// expr walks an expression in source order, dispatching calls and
// isolating non-invoked function literals.
func (w *lockWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		if lit, ok := e.Fun.(*ast.FuncLit); ok {
			// Immediately-invoked literal runs under current locks.
			for _, a := range e.Args {
				w.expr(a)
			}
			w.stmts(lit.Body.List)
			return
		}
		w.call(e, false)
	case *ast.FuncLit:
		w.freshContext(e)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.SelectorExpr:
		w.expr(e.X)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.UnaryExpr:
		w.expr(e.X)
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Key)
		w.expr(e.Value)
	}
}

// freshContext analyzes a function literal body in a new, lock-free
// context (it executes later, not under the current locks).
func (w *lockWalker) freshContext(lit *ast.FuncLit) {
	c := newLockWalker(w.u, w.pkg, w.onCall, w.onAcquire)
	c.stmts(lit.Body.List)
	w.findings = append(w.findings, c.findings...)
}

// call classifies one call: mutex state change (tracked here) or a
// regular call (handed to the analyzer's onCall hook).
func (w *lockWalker) call(call *ast.CallExpr, deferred bool) {
	for _, a := range call.Args {
		w.expr(a)
	}
	fn := calleeFunc(w.pkg.Info, call)
	if fn == nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			w.expr(sel.X)
		}
		return
	}
	if acquire, release := isSyncLockMethod(fn); acquire || release {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		mutex := exprString(sel.X)
		if acquire {
			lk := heldLock{pos: call.Pos(), expr: mutex, class: lockClass(w.pkg, sel)}
			if w.onAcquire != nil {
				w.onAcquire(w, call, lk)
			}
			w.held[mutex] = lk
		} else if !deferred {
			delete(w.held, mutex)
		}
		return
	}
	if w.onCall != nil {
		w.onCall(w, call, fn, deferred)
	}
}

// lockClass classifies a mutex receiver expression into a module-wide
// lock class: a named type's field ("(mapreduce.Driver).mu"), an
// embedded mutex ("(transport.Server).Mutex"), or a package-level var
// ("transport.connMu"). Function-local mutexes and unresolvable
// receivers return "" — they cannot participate in cross-function
// ordering.
func lockClass(p *Package, sel *ast.SelectorExpr) string {
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		// pkg.var.Lock(): a package-level mutex qualified by import.
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Name() + "." + x.Sel.Name
			}
		}
		// X.f.Lock(): field f on the named type of X.
		if tv, ok := p.Info.Types[x.X]; ok {
			if name := namedTypeName(tv.Type); name != "" {
				return "(" + name + ")." + x.Sel.Name
			}
		}
	case *ast.Ident:
		if v, ok := p.Info.Uses[x].(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name()
			}
			// s.Lock() on a named type embedding the mutex.
			if name := namedTypeName(v.Type()); name != "" && !strings.HasPrefix(name, "sync.") {
				return "(" + name + ").Mutex"
			}
		}
	}
	return ""
}

// namedTypeName renders the (pointer-indirected) named type of t as
// "pkg.Type", or "" when t is not a named type.
func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil {
		return ""
	}
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
