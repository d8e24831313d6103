package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eclipsemr/internal/trace"
)

// writeRuns writes an -out file holding one untraced record per value of
// mb_per_s for every workload, every other end-to-end metric fixed at 1.
func writeRuns(t *testing.T, values []float64) string {
	t.Helper()
	var lines []string
	for _, w := range workloadDefs {
		for _, v := range values {
			rec := record{Workload: w.name}
			rec.Metrics = make(map[string]metricValue)
			for _, d := range endToEndMetrics {
				rec.Metrics[d.Name] = metricValue{Value: 1, Unit: d.Unit}
			}
			rec.Metrics["mb_per_s"] = metricValue{Value: v, Unit: "MiB/s"}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(line))
		}
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	base := writeRuns(t, []float64{100, 101, 99, 100, 100})
	for _, tc := range []struct {
		name    string
		other   []float64
		verdict string
		code    int
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "ok", 0},
		{"faster", []float64{150, 151, 149, 150, 150}, "ok", 0},
		{"slower", []float64{50, 51, 49, 50, 50}, "regress", 1},
		{"noisy", []float64{60, 100, 140, 80, 120}, "unresolved", 1},
	} {
		var out strings.Builder
		code := compareFiles(&out, manifestPath, []string{base, writeRuns(t, tc.other)})
		if code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " mb_per_s ") && !strings.HasSuffix(line, tc.verdict) {
				t.Errorf("%s: want verdict %s: %s", tc.name, tc.verdict, line)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []trace.Span{
		{ID: 1, Name: "parent", StartNS: 0, DurNS: 100},
		{ID: 2, Parent: 1, Name: "child", StartNS: 10, DurNS: 30}, // 10..40
		{ID: 3, Parent: 1, Name: "child", StartNS: 30, DurNS: 30}, // overlaps the first: 30..60
		{ID: 4, Parent: 1, Name: "late", StartNS: 90, DurNS: 50},  // runs past the parent: 90..140
		{ID: 5, Parent: 2, Name: "grandchild", StartNS: 15, DurNS: 5},
	}
	self := selfTimes(spans)
	// parent: 100 - (10..60) - (90..100) = 40; the two children cover 50
	// between them, of which the grandchild takes 5.
	want := map[string]int64{"parent": 40, "child": 30 + 30 - 5, "late": 50, "grandchild": 5}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
}
