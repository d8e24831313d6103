// Package lint is eclipse-lint: a stdlib-only static-analysis suite that
// enforces EclipseMR's project-specific invariants at build time — the
// properties the compiler cannot check and that PR 1's chaos layer and
// PR 2's metrics layer only catch at runtime.
//
// The suite loads every package under a module (go/parser + go/types with
// the source importer; no golang.org/x/tools dependency) and runs eleven
// analyzers:
//
//   - ringcmp:    raw <, <=, >, >= between hashing.Key values outside
//     internal/hashing. Keys live on a modular ring; ordinal
//     comparison silently breaks wraparound arcs (§III-A).
//   - lockedrpc:  transport RPCs issued while a sync.Mutex/RWMutex
//     acquired in the same function is still held — deadlock and
//     tail-latency risk in stabilization, replication, heartbeats.
//   - lockorder:  the module-wide mutex-acquisition graph, built through
//     the call graph, must stay acyclic; a cycle is a potential
//     deadlock. DESIGN.md holds the canonical lock-rank table.
//   - metricname: metric registrations must use statically known names,
//     and a name must keep one kind (counter/gauge/histogram)
//     across the whole module, or cluster-wide Merge corrupts.
//   - eventname:  events.Log.Emit must use statically known event names;
//     the event vocabulary is the debugging contract that CLI
//     filters, bundles and the deterministic e2e pin.
//   - timesource: time.Now/time.Sleep and the global math/rand source
//     inside internal/sim and internal/simcluster, which must
//     use the injected clock/seed so figure sweeps reproduce.
//   - droppederr: implicitly discarded error returns at transport, dhtfs
//     and cache I/O boundaries.
//   - spanend:    trace.Start* spans that can never be ended — result
//     discarded, bound to the blank identifier, or a span
//     variable with neither an End call nor an escape.
//   - goroleak:   every go statement must show a termination path — a
//     caller-supplied context, a channel receive or range, a
//     select, or a WaitGroup join.
//   - ctxflow:    contexts must flow down from entry points: no
//     context.Background()/TODO() below cmd/, examples/ and
//     internal/nodecmd, no context stored in struct fields,
//     and no bare time.Sleep in context-aware functions.
//   - wiremsg:    inside internal/mapreduce and internal/dhtfs, a value
//     given to transport.Encode/Decode/EncodeFrame/DecodeFrame
//     must statically implement transport.Wire, or it would
//     quietly cross the wire as gob.
//
// Findings print as "file:line: analyzer: message". A finding is
// suppressed by a comment on the same line or the line above:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory, and only the named analyzers are suppressed;
// an ignore directive without a reason, naming an unknown analyzer, or
// naming one that suppresses nothing in the run is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line: analyzer: message
// form, with the file path made relative to dir when possible.
func (f Finding) String() string { return f.Render("") }

// Render renders the finding with file paths relative to dir (when
// non-empty and the path is beneath it).
func (f Finding) Render(dir string) string {
	file := f.Pos.Filename
	if dir != "" {
		if rel, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return fmt.Sprintf("%s:%d: %s: %s", file, f.Pos.Line, f.Analyzer, f.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path ("eclipsemr/internal/chord").
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Info holds the type-checker's results for Files.
	Info *types.Info
	// Types is the checked package.
	Types *types.Package
}

// Unit is the whole body of code one lint run analyzes. Analyzers see
// every package at once so cross-package facts (the transport call graph,
// the metric-name registry) are visible.
type Unit struct {
	Fset *token.FileSet
	Pkgs []*Package
	// All holds every module package the loader checked — the target
	// Pkgs plus their module-local dependencies. Analyzers report
	// findings only for Pkgs, but evidence lookups (a callee's body, a
	// function's lock summary) should consult All so a run over some
	// packages reaches the same verdicts for them as a full one.
	// Empty in hand-built units; see Context().
	All []*Package
}

// Context returns the packages cross-package lookups should scan: every
// checked module package when the loader recorded them, else the targets.
func (u *Unit) Context() []*Package {
	if len(u.All) > 0 {
		return u.All
	}
	return u.Pkgs
}

// An Analyzer checks one invariant over a Unit.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(u *Unit) []Finding
}

// Analyzers is the ordered suite eclipse-lint runs.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		RingCmp(),
		LockedRPC(),
		LockOrder(),
		MetricName(),
		EventName(),
		TimeSource(),
		DroppedErr(),
		SpanEnd(),
		GoroLeak(),
		CtxFlow(),
		WireMsg(),
	}
}

// AnalyzerNames returns the suite's analyzer names in run order.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// IgnoreDirective is one parsed //lint:ignore comment. A directive names
// one or more analyzers (comma-separated, no spaces inside the list);
// only the named analyzers are suppressed at the covered lines.
type IgnoreDirective struct {
	Pos       token.Position
	Analyzers []string
	Reason    string

	// used records, per named analyzer, whether the directive actually
	// suppressed a finding during the run. Names that ran but suppressed
	// nothing are reported as badignore findings: a stale suppression
	// silently masks the next real violation on that line.
	used map[string]bool
}

// ignoreSet indexes the unit's parsed directives by the (file, line)
// pairs they cover. Both covered lines of one comment share the same
// *IgnoreDirective so use on either line marks the directive used.
type ignoreSet struct {
	byLine map[string]map[int][]*IgnoreDirective
	all    []*IgnoreDirective // in parse order, for deterministic reports
}

const ignorePrefix = "//lint:ignore"

// parseIgnores collects every //lint:ignore directive in the unit, keyed
// by (file, line) of the code the directive covers: the directive's own
// line and the line below it (so both same-line trailing comments and
// whole-line comments above a statement work).
//
// Malformed directives (missing analyzer list or reason, empty list
// elements) and unknown analyzer names are returned as findings so they
// fail the run instead of silently ignoring nothing.
func parseIgnores(u *Unit) (*ignoreSet, []Finding) {
	known := make(map[string]bool)
	for _, name := range AnalyzerNames() {
		known[name] = true
	}
	ign := &ignoreSet{byLine: make(map[string]map[int][]*IgnoreDirective)}
	var bad []Finding
	add := func(file string, line int, d *IgnoreDirective) {
		if ign.byLine[file] == nil {
			ign.byLine[file] = make(map[int][]*IgnoreDirective)
		}
		ign.byLine[file][line] = append(ign.byLine[file][line], d)
	}
	for _, p := range u.Pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, ignorePrefix)
					pos := u.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						bad = append(bad, Finding{
							Pos:      pos,
							Analyzer: "badignore",
							Message:  "malformed directive: want //lint:ignore <analyzer>[,<analyzer>...] <reason>",
						})
						continue
					}
					var names []string
					ok := true
					for _, name := range strings.Split(fields[0], ",") {
						if name == "" {
							bad = append(bad, Finding{
								Pos:      pos,
								Analyzer: "badignore",
								Message:  "malformed directive: empty analyzer name in list",
							})
							ok = false
							break
						}
						if !known[name] {
							bad = append(bad, Finding{
								Pos:      pos,
								Analyzer: "badignore",
								Message: fmt.Sprintf("unknown analyzer %q (have %s)",
									name, strings.Join(AnalyzerNames(), ", ")),
							})
							continue
						}
						names = append(names, name)
					}
					if !ok || len(names) == 0 {
						continue
					}
					d := &IgnoreDirective{
						Pos:       pos,
						Analyzers: names,
						Reason:    strings.Join(fields[1:], " "),
						used:      make(map[string]bool),
					}
					ign.all = append(ign.all, d)
					// Covers the directive's own line (trailing comment)
					// and the next line (comment above the statement).
					add(pos.Filename, pos.Line, d)
					add(pos.Filename, pos.Line+1, d)
				}
			}
		}
	}
	return ign, bad
}

// suppress reports whether some directive covers the finding, marking the
// matching analyzer name used on that directive.
func (ign *ignoreSet) suppress(f Finding) bool {
	hit := false
	for _, d := range ign.byLine[f.Pos.Filename][f.Pos.Line] {
		for _, name := range d.Analyzers {
			if name == f.Analyzer {
				d.used[name] = true
				hit = true
			}
		}
	}
	return hit
}

// unused reports badignore findings for directive names that named an
// analyzer that ran but suppressed nothing. Names of analyzers outside
// the run set are exempt: a -only run must not invalidate
// directives aimed at the full suite.
func (ign *ignoreSet) unused(ran map[string]bool) []Finding {
	var findings []Finding
	for _, d := range ign.all {
		for _, name := range d.Analyzers {
			if ran[name] && !d.used[name] {
				findings = append(findings, Finding{
					Pos:      d.Pos,
					Analyzer: "badignore",
					Message:  fmt.Sprintf("ignore for %q suppressed nothing; delete the name or the directive", name),
				})
			}
		}
	}
	return findings
}

// Run executes the given analyzers over the unit, applies //lint:ignore
// suppression, and returns the surviving findings sorted by position.
// Directives that name an analyzer in the run set but suppress none of
// its findings are reported as badignore.
func Run(u *Unit, analyzers []*Analyzer) []Finding {
	ign, bad := parseIgnores(u)
	findings := append([]Finding(nil), bad...)
	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
		for _, f := range a.Run(u) {
			if ign.suppress(f) {
				continue
			}
			findings = append(findings, f)
		}
	}
	findings = append(findings, ign.unused(ran)...)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// ---- shared type helpers used by the analyzers ----

// isNamed reports whether t (after pointer indirection) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// calleeFunc resolves the function or method a call expression invokes,
// or nil for indirect calls through function values, type conversions and
// builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcKey returns a stable cross-package identity for a function: its
// types.Func full name, e.g. "(*eclipsemr/internal/cluster.Node).call".
// Identity by string survives the same package being type-checked twice
// (once as a subject, once as a dependency).
func funcKey(fn *types.Func) string { return fn.FullName() }

// exprString renders a (small) expression for use in messages and as a
// mutex identity key.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.BasicLit:
		return e.Value
	default:
		return "<expr>"
	}
}
