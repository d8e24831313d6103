package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const manifestPath = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// keysOf decodes one JSON object and returns its keys, sorted.
func keysOf(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("not an object: %v: %s", err, raw)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func wantKeys(t *testing.T, what string, raw json.RawMessage, want ...string) {
	t.Helper()
	sort.Strings(want)
	if got := keysOf(t, raw); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s has keys %v, want exactly %v", what, got, want)
	}
}

// TestManifestMeetsContract checks BENCHMARK.json field by field against
// the limits the benchmark driver refuses a manifest over.
func TestManifestMeetsContract(t *testing.T) {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(data))
	}
	wantKeys(t, "manifest", data, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
	var raw struct {
		Workloads []json.RawMessage `json:"workloads"`
		EndToEnd  []json.RawMessage `json:"end_to_end"`
		PerLayer  []json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, w := range raw.Workloads {
		wantKeys(t, "workload", w, "name", "why")
	}
	for _, m := range raw.EndToEnd {
		wantKeys(t, "end_to_end metric", m, "name", "unit", "better", "bound")
	}
	for _, m := range raw.PerLayer {
		wantKeys(t, "per_layer metric", m, "name", "unit", "better")
	}

	man, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(man.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings, want 1..32", n)
	}
	for _, arg := range man.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q is too long, absolute, or leaves the repo", arg)
		}
	}
	if n := len(man.Paths); n < 1 || n > 16 {
		t.Errorf("paths has %d entries, want 1..16", n)
	}
	for _, p := range man.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", man.RunSeconds)
	}
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end_to_end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per_layer metrics, want 1..128", n)
	}
	// The driver makes 4 + 22 x workloads runs and gives all of them, with
	// set-up and two builds, 3420 s. Allow each run its measured phase,
	// three set-ups and the tear-down (6 s covers the slowest workload).
	runs := 4 + 22*len(man.Workloads)
	if total := runs * (man.RunSeconds + 6); total > 3420-300 {
		t.Errorf("%d runs of %d s + set-up need about %d s, over the 3420 s cap less 300 s for builds",
			runs, man.RunSeconds, total)
	}

	seen := make(map[string]bool)
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range man.Workloads {
		checkName("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, group := range [][]manifestMetric{man.EndToEnd, man.PerLayer} {
		for _, m := range group {
			checkName("metric", m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unitRE)
			}
			if m.Better != lower && m.Better != higher {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range man.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
		}
	}
	if !setup {
		t.Error(`end_to_end lacks {"name": "setup_s", "unit": "s", "better": "lower"}`)
	}
}

func defsOf(ms []manifestMetric) []metricDef {
	defs := make([]metricDef, len(ms))
	for i, m := range ms {
		defs[i] = metricDef{m.Name, m.Unit, m.Better}
	}
	return defs
}

func sameDefs(t *testing.T, what string, manifest, code []metricDef) {
	t.Helper()
	inManifest := make(map[metricDef]bool)
	for _, d := range manifest {
		inManifest[d] = true
	}
	inCode := make(map[metricDef]bool)
	for _, d := range code {
		inCode[d] = true
		if !inManifest[d] {
			t.Errorf("%s: the runner reports %+v, BENCHMARK.json does not list it", what, d)
		}
	}
	for _, d := range manifest {
		if !inCode[d] {
			t.Errorf("%s: BENCHMARK.json lists %+v, the runner does not report it", what, d)
		}
	}
}

// TestManifestMatchesRunner runs every workload at -short size, untraced
// and traced, and checks that what the runner emits and what
// BENCHMARK.json lists are the same sets, in both directions.
func TestManifestMatchesRunner(t *testing.T) {
	man, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	sameDefs(t, "end_to_end", defsOf(man.EndToEnd), endToEndMetrics)
	sameDefs(t, "per_layer", defsOf(man.PerLayer), perLayerMetrics)
	if len(man.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner has %d", len(man.Workloads), len(workloadDefs))
	}
	for i, w := range man.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the runner", i, w.Name, workloadDefs[i].name)
		}
	}

	for _, w := range workloadDefs {
		for trace, listed := range [][]manifestMetric{man.EndToEnd, man.PerLayer} {
			cfg := runConfig{workload: w.name, seed: 1, ops: 4, traced: trace == 1, short: true, outDir: t.TempDir()}
			rec, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < cfg.ops {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, rec.Correct, rec.Attempted, rec.Failed)
			}
			for _, m := range listed {
				got, ok := rec.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%d: %s is listed but not emitted", w.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%d: %s emitted in %q, listed in %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(rec.Metrics) != len(listed) {
				t.Errorf("%s trace=%d: %d metrics emitted, %d listed", w.name, trace, len(rec.Metrics), len(listed))
			}
			if trace == 0 {
				for name, v := range rec.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v.Value)
					}
				}
			} else if name := "trace.dropped"; rec.Metrics[name].Value != 0 {
				t.Errorf("%s: %s = %v", w.name, name, rec.Metrics[name].Value)
			}
		}
	}
}
