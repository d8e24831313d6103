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
	"strconv"
	"strings"
)

// Loader discovers, parses and type-checks packages for one lint run.
// Module-local imports are served from the loader's own checked packages
// (so every analyzer sees one consistent object identity per package);
// everything else falls back to the stdlib source importer.
type Loader struct {
	// Root is the module root directory (the directory holding go.mod).
	Root string
	// Module is the module path from go.mod.
	Module string
	// GoVersion is the go directive from go.mod ("1.22"), if any.
	GoVersion string

	fset     *token.FileSet
	fallback types.Importer
	checked  map[string]*Package // by import path
	checking map[string]bool     // cycle guard across importer re-entry
	order    []*Package          // in check order
}

// NewLoader locates the module root at or above dir and prepares a loader.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		root = parent
	}
	module, goVersion, err := moduleDirectives(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:      root,
		Module:    module,
		GoVersion: goVersion,
		fset:      fset,
		fallback:  importer.ForCompiler(fset, "source", nil),
		checked:   make(map[string]*Package),
		checking:  make(map[string]bool),
	}, nil
}

// moduleDirectives extracts the module path and go directive from a
// go.mod file. The go directive is optional and returned as "" when
// absent.
func moduleDirectives(gomod string) (module, goVersion string, err error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if p, uerr := strconv.Unquote(rest); uerr == nil {
				rest = p
			}
			if rest != "" && module == "" {
				module = rest
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "go "); ok {
			if v := strings.TrimSpace(rest); v != "" && goVersion == "" {
				goVersion = v
			}
		}
	}
	if module == "" {
		return "", "", fmt.Errorf("lint: no module directive in %s", gomod)
	}
	return module, goVersion, nil
}

// Load resolves the given patterns (directories, or dir/... recursive
// patterns; "./..." is the usual spell) into package directories, then
// parses and type-checks them all in dependency order. It returns the
// unit ready for analysis.
func (l *Loader) Load(patterns ...string) (*Unit, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	// Parse every target dir first so imports can be resolved to parsed
	// packages before any type-checking starts.
	parsed := make(map[string]*parsedPkg) // by import path
	var paths []string
	for _, dir := range dirs {
		p, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if p == nil {
			continue // no non-test Go files
		}
		if _, dup := parsed[p.path]; dup {
			return nil, fmt.Errorf("lint: duplicate package %s", p.path)
		}
		parsed[p.path] = p
		paths = append(paths, p.path)
	}
	sort.Strings(paths)
	// Snapshot the target set now: checking may lazily parse further
	// module packages (imports outside the patterns), and those must not
	// become analysis targets themselves.
	targets := make(map[string]bool, len(paths))
	for _, path := range paths {
		targets[path] = true
	}
	for _, path := range paths {
		if err := l.check(parsed, path, nil); err != nil {
			return nil, err
		}
	}
	u := &Unit{Fset: l.fset, GoVersion: l.GoVersion}
	u.All = append(u.All, l.order...)
	for _, p := range l.order {
		if targets[p.Path] {
			u.Pkgs = append(u.Pkgs, p)
		}
	}
	return u, nil
}

// expand turns patterns into a sorted list of package directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.Root, base)
		}
		info, err := os.Stat(base)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("lint: %s is not a directory", pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			// Same exclusions as the go tool: testdata trees, hidden and
			// underscore directories are not packages.
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

type parsedPkg struct {
	path  string
	dir   string
	name  string
	files []*ast.File
}

// parseDir parses the non-test Go files of one directory that the default
// build (no race detector, this platform) compiles, or returns nil if it
// holds none.
func (l *Loader) parseDir(dir string) (*parsedPkg, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	name := ""
	for _, e := range ents {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, fn); err != nil {
			return nil, err
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, fn), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if name == "" {
			name = f.Name.Name
		} else if f.Name.Name != name {
			return nil, fmt.Errorf("lint: %s: mixed packages %s and %s", dir, name, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	return &parsedPkg{path: l.importPath(dir), dir: dir, name: name, files: files}, nil
}

// importPath maps a directory beneath the module root to its import path.
// Directories outside the module (or the root itself) map to the module
// path plus a relative suffix; callers only ever pass module dirs.
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// check type-checks one parsed package, recursively checking parsed
// module dependencies first. stack guards against import cycles.
func (l *Loader) check(parsed map[string]*parsedPkg, path string, stack []string) error {
	if _, done := l.checked[path]; done {
		return nil
	}
	for _, s := range stack {
		if s == path {
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(stack, path), " -> "))
		}
	}
	p, ok := parsed[path]
	if !ok {
		return fmt.Errorf("lint: internal error: %s not parsed", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)
	stack = append(stack, path)
	for _, f := range p.files {
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if _, isLocal := parsed[ipath]; isLocal {
				if err := l.check(parsed, ipath, stack); err != nil {
					return err
				}
			}
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: &unitImporter{loader: l, parsed: parsed}}
	pkg, err := conf.Check(path, l.fset, p.files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	lp := &Package{Path: path, Dir: p.dir, Files: p.files, Info: info, Types: pkg}
	l.checked[path] = lp
	l.order = append(l.order, lp)
	return nil
}

// unitImporter serves every module-local package from the loader's own
// checked set — parsing and checking it on demand when the patterns did
// not select it — and delegates only non-module imports (the stdlib) to
// the source importer. Routing all module packages through one checker is
// what keeps type identities consistent: if a package outside the pattern
// set were resolved from source by the fallback, its view of shared
// dependencies would be distinct *types.Package instances, and values
// flowing between a checked package and a fallback one would spuriously
// fail to type-check (e.g. "does not implement" for interfaces whose
// method signatures mention a shared dependency).
type unitImporter struct {
	loader *Loader
	parsed map[string]*parsedPkg
}

func (ui *unitImporter) Import(path string) (*types.Package, error) {
	l := ui.loader
	if p, ok := l.checked[path]; ok {
		return p.Types, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		if l.checking[path] {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		if _, ok := ui.parsed[path]; !ok {
			dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")))
			p, err := l.parseDir(dir)
			if err != nil {
				return nil, err
			}
			if p == nil {
				return nil, fmt.Errorf("lint: import %s: no Go files in %s", path, dir)
			}
			ui.parsed[path] = p
		}
		if err := l.check(ui.parsed, path, nil); err != nil {
			return nil, err
		}
		return l.checked[path].Types, nil
	}
	if from, ok := l.fallback.(types.ImporterFrom); ok {
		return from.ImportFrom(path, l.Root, 0)
	}
	return l.fallback.Import(path)
}
