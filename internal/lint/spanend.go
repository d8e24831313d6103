package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// tracePkgPath is the tracing package whose Start* results must be
// ended. The package itself is exempt: it constructs and finishes spans
// through its own internals.
const tracePkgPath = "eclipsemr/internal/trace"

// SpanEnd reports spans obtained from trace.Start* (StartRoot,
// StartSpan, StartSpanAt, StartStage) that can never be ended:
//
//   - the call's results are discarded outright (expression statement),
//   - the span result is bound to the blank identifier, or
//   - the span variable neither has End called on it anywhere in the
//     enclosing function (including defers and nested closures) nor
//     escapes it (returned, passed as an argument, stored).
//
// A span that is never ended never reaches the tracer's ring buffer, so
// the trace silently loses the operation: the job timeline shows a hole
// exactly where the instrumented stage ran. The sanctioned shapes are
//
//	ctx, sp := t.StartSpan(ctx, "stage")
//	defer sp.End()
//	ctx, st := t.StartStage(ctx, "stage", h)
//	defer st.End()
func SpanEnd() *Analyzer {
	return &Analyzer{
		Name: "spanend",
		Doc:  "trace.Start* span without a matching End (or escape) in the enclosing function",
		Run:  runSpanEnd,
	}
}

// startCall resolves e to a trace.Start* call, or nil.
func startCall(info *types.Info, e ast.Expr) (*ast.CallExpr, *types.Func) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != tracePkgPath {
		return nil, nil
	}
	if !strings.HasPrefix(fn.Name(), "Start") {
		return nil, nil
	}
	return call, fn
}

// funcBodies collects every function body in the file with its extent,
// innermost-last when nested.
type bodyRange struct {
	body *ast.BlockStmt
}

func collectBodies(f *ast.File) []bodyRange {
	var out []bodyRange
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, bodyRange{body: n.Body})
			}
		case *ast.FuncLit:
			out = append(out, bodyRange{body: n.Body})
		}
		return true
	})
	return out
}

// enclosingBody returns the smallest function body containing pos.
func enclosingBody(bodies []bodyRange, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, b := range bodies {
		if b.body.Pos() <= pos && pos < b.body.End() {
			if best == nil || (b.body.Pos() >= best.Pos() && b.body.End() <= best.End()) {
				best = b.body
			}
		}
	}
	return best
}

func runSpanEnd(u *Unit) []Finding {
	var findings []Finding
	for _, p := range u.Pkgs {
		if p.Path == tracePkgPath || p.Types.Name() == "trace" {
			continue
		}
		for _, f := range p.Files {
			bodies := collectBodies(f)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, fn := startCall(p.Info, n.X); call != nil {
						findings = append(findings, Finding{
							Pos:      u.Fset.Position(call.Pos()),
							Analyzer: "spanend",
							Message: fmt.Sprintf(
								"result of trace.%s is discarded; the span can never be ended", fn.Name()),
						})
					}
				case *ast.AssignStmt:
					if len(n.Rhs) != 1 || len(n.Lhs) != 2 {
						return true
					}
					call, fn := startCall(p.Info, n.Rhs[0])
					if call == nil {
						return true
					}
					spanIdent, ok := n.Lhs[1].(*ast.Ident)
					if !ok {
						return true // span stored through a selector/index: escapes
					}
					if spanIdent.Name == "_" {
						findings = append(findings, Finding{
							Pos:      u.Fset.Position(call.Pos()),
							Analyzer: "spanend",
							Message: fmt.Sprintf(
								"span from trace.%s is bound to the blank identifier and can never be ended", fn.Name()),
						})
						return true
					}
					obj := p.Info.Defs[spanIdent]
					if obj == nil {
						obj = p.Info.Uses[spanIdent]
					}
					if obj == nil {
						return true
					}
					body := enclosingBody(bodies, call.Pos())
					if body == nil {
						return true
					}
					if !spanHandled(p.Info, body, obj, spanIdent) {
						findings = append(findings, Finding{
							Pos:      u.Fset.Position(call.Pos()),
							Analyzer: "spanend",
							Message: fmt.Sprintf(
								"span %s from trace.%s is never ended and never escapes this function; add a deferred %s.End()",
								spanIdent.Name, fn.Name(), spanIdent.Name),
						})
					}
				}
				return true
			})
		}
	}
	return findings
}

// spanHandled reports whether the span object is either ended (a
// sp.End reference anywhere in the function, covering direct calls,
// defers and closures) or escapes (any use outside a method-receiver
// position: returned, passed as an argument, reassigned, stored).
func spanHandled(info *types.Info, body *ast.BlockStmt, obj types.Object, def *ast.Ident) bool {
	ended := false
	// receiver marks idents appearing as the X of a selector (method
	// calls and field reads on the span): those uses neither end the
	// span nor let it escape, except for End itself.
	receiver := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || info.Uses[id] != obj {
			return true
		}
		receiver[id] = true
		if sel.Sel.Name == "End" {
			ended = true
		}
		return true
	})
	if ended {
		return true
	}
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id == def || receiver[id] {
			return true
		}
		if info.Uses[id] == obj {
			escapes = true
		}
		return true
	})
	return escapes
}
