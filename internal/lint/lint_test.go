package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadTestdata loads one golden package under testdata/src.
func loadTestdata(t *testing.T, name string) *Unit {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	unit, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	if len(unit.Pkgs) != 1 {
		t.Fatalf("Load(%s): got %d packages, want 1", name, len(unit.Pkgs))
	}
	return unit
}

// wantRe matches the golden expectation comments: // want "substring"
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// expectations parses the want comments of one golden file into line ->
// required message substring.
func expectations(t *testing.T, file string) map[int]string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]string)
	for i, line := range strings.Split(string(data), "\n") {
		if m := wantRe.FindStringSubmatch(line); m != nil {
			want[i+1] = m[1]
		}
	}
	if len(want) == 0 {
		t.Fatalf("%s: no // want expectations found", file)
	}
	return want
}

// analyzerByName fetches one analyzer from the suite.
func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer %q", name)
	return nil
}

// TestAnalyzersGolden drives every analyzer over its golden package:
// trigger.go must produce exactly its want-marked findings, clean.go and
// ignored.go must produce none (the latter via //lint:ignore).
func TestAnalyzersGolden(t *testing.T) {
	for _, name := range AnalyzerNames() {
		t.Run(name, func(t *testing.T) {
			unit := loadTestdata(t, name)
			a := analyzerByName(t, name)
			findings := Run(unit, []*Analyzer{a})

			pkgDir := unit.Pkgs[0].Dir
			want := expectations(t, filepath.Join(pkgDir, "trigger.go"))

			matched := make(map[int]bool)
			for _, f := range findings {
				if f.Analyzer != a.Name {
					t.Errorf("unexpected analyzer %q in finding: %s", f.Analyzer, f)
					continue
				}
				base := filepath.Base(f.Pos.Filename)
				if base != "trigger.go" {
					t.Errorf("finding outside trigger.go: %s", f)
					continue
				}
				sub, ok := want[f.Pos.Line]
				if !ok {
					t.Errorf("finding at unmarked line %d: %s", f.Pos.Line, f)
					continue
				}
				if !strings.Contains(f.Message, sub) {
					t.Errorf("line %d: message %q does not contain %q", f.Pos.Line, f.Message, sub)
					continue
				}
				matched[f.Pos.Line] = true
			}
			for line, sub := range want {
				if !matched[line] {
					t.Errorf("trigger.go:%d: expected finding containing %q, got none", line, sub)
				}
			}
		})
	}
}

// TestBadIgnoreDirective checks that malformed or unknown-analyzer ignore
// directives are themselves findings: a suppression that silently ignores
// nothing is worse than no suppression.
func TestBadIgnoreDirective(t *testing.T) {
	unit := loadTestdata(t, "badignore")
	findings := Run(unit, Analyzers())
	var badCount int
	for _, f := range findings {
		if f.Analyzer == "badignore" {
			badCount++
		} else {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if badCount != 3 {
		t.Errorf("got %d badignore findings, want 3 (malformed + unknown analyzer + unused name in a comma list)", badCount)
	}
	var unused int
	for _, f := range findings {
		if strings.Contains(f.Message, "suppressed nothing") {
			unused++
			if !strings.Contains(f.Message, `"droppederr"`) {
				t.Errorf("unused-name finding should name droppederr: %s", f)
			}
		}
	}
	if unused != 1 {
		t.Errorf("got %d unused-name findings, want 1", unused)
	}
}

// TestAnalyzerInteraction runs lockedrpc and lockorder together over one
// package where a single function violates both: the findings must not
// mask or duplicate each other.
func TestAnalyzerInteraction(t *testing.T) {
	unit := loadTestdata(t, "interaction")
	findings := Run(unit, []*Analyzer{analyzerByName(t, "lockedrpc"), analyzerByName(t, "lockorder")})

	type site struct {
		line     int
		analyzer string
	}
	got := make(map[site]bool)
	for _, f := range findings {
		got[site{f.Pos.Line, f.Analyzer}] = true
	}
	want := map[site]bool{
		{27, "lockorder"}: true, // p.wal.Lock() in lockedFanout: cycle edge mu -> wal
		{28, "lockedrpc"}: true, // p.net.Call under both mutexes
		{36, "lockorder"}: true, // p.mu.Lock() in reverse: cycle edge wal -> mu
	}
	for s := range want {
		if !got[s] {
			t.Errorf("missing finding: line %d analyzer %s", s.line, s.analyzer)
		}
	}
	for s := range got {
		if !want[s] {
			t.Errorf("unexpected finding: line %d analyzer %s", s.line, s.analyzer)
		}
	}
}

// TestSuiteNames pins the advertised analyzer set; docs and CI reference
// these names.
func TestSuiteNames(t *testing.T) {
	got := strings.Join(AnalyzerNames(), ",")
	want := "ringcmp,lockedrpc,lockorder,metricname,eventname,timesource,droppederr,spanend,goroleak,ctxflow,wiremsg"
	if got != want {
		t.Fatalf("AnalyzerNames() = %s, want %s", got, want)
	}
}

// TestRepoClean runs the full suite over the whole module: the repo must
// stay lint-clean (violations either fixed or carrying a reasoned
// //lint:ignore). This is the same gate scripts/check.sh and CI enforce
// via cmd/eclipse-lint.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the full module is slow; covered by make lint in CI")
	}
	// The concurrency-invariant analyzers (and the data-path codec gate)
	// must be part of the enforced suite, not merely available: a rename
	// or a dropped registration would silently stop gating the repo.
	for _, name := range []string{"lockorder", "goroleak", "ctxflow", "eventname", "wiremsg"} {
		analyzerByName(t, name)
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	unit, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(unit, Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f.Render(loader.Root))
	}
}

// TestLoadPartialSetOneIdentityPerPackage pins the loader's one-identity
// guarantee for partial pattern sets (eclipse-lint given some packages).
// examples/kmeans imports internal/apps, which is outside the set;
// before the loader checked module-local imports itself, the fallback
// source importer gave apps its own instances of shared dependencies,
// and passing a checked *cluster.Cluster (the facade's Cluster is an
// alias of it) to the fallback's apps.Runner failed type-checking with
// a spurious "does not implement". The load
// must succeed, the unchosen dependencies must land in Unit.All (where
// goroleak and lockorder resolve evidence), and only the chosen
// patterns may be analysis targets.
func TestLoadPartialSetOneIdentityPerPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a large slice of the module")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	unit, err := loader.Load("examples/kmeans", "internal/cluster", "internal/mapreduce")
	if err != nil {
		t.Fatalf("partial-set load: %v", err)
	}
	if got := len(unit.Pkgs); got != 3 {
		t.Fatalf("targets = %d packages, want 3", got)
	}
	all := make(map[string]bool)
	for _, p := range unit.All {
		all[p.Path] = true
	}
	for _, dep := range []string{"eclipsemr/internal/apps", "eclipsemr/internal/trace"} {
		if !all[dep] {
			t.Errorf("Unit.All missing module dependency %s; partial-run evidence would diverge from a full run", dep)
		}
	}
	for _, p := range unit.Pkgs {
		if p.Path == "eclipsemr/internal/apps" {
			t.Error("dependency leaked into the analysis targets")
		}
	}
	// The module-wide analyzers must reach full-run verdicts on a subset:
	// the repo is kept clean, so the subset must be clean too — in
	// particular goroleak must find its termination evidence in callees
	// that live outside the chosen patterns.
	for _, f := range Run(unit, Analyzers()) {
		t.Errorf("partial run not clean: %s", f.Render(loader.Root))
	}
}
