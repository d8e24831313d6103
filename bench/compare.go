package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifestFile is BENCHMARK.json.
type manifestFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (manifestFile, error) {
	var m manifestFile
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// readRecords loads an -out file into values[workload][metric], keeping
// only untraced runs (the end-to-end metrics).
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if values[rec.Workload] == nil {
			values[rec.Workload] = make(map[string][]float64)
		}
		for name, v := range rec.Metrics {
			values[rec.Workload][name] = append(values[rec.Workload][name], v.Value)
		}
	}
	return values, sc.Err()
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (its default, exclusive
// method), so the spread printed here is the one the benchmark driver
// computes. A single value is its own quartiles.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse b is than a as a share of a, the bound, and a verdict:
// regress when b is worse by more than the bound, unresolved when the
// spread between either side's repeats is wider than the bound, else ok.
// It returns 1 if any row is not ok.
func compareFiles(w io.Writer, manifestPath string, files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "eclipse-perf: -compare takes two -out files")
		return 2
	}
	man, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eclipse-perf: %v\n", err)
		return 2
	}
	var sides [2]map[string]map[string][]float64
	for i, path := range files {
		if sides[i], err = readRecords(path); err != nil {
			fmt.Fprintf(os.Stderr, "eclipse-perf: %v\n", err)
			return 2
		}
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-13s %12s %12s %9s %7s %7s %6s  %s\n",
		"workload", "metric", "a median", "b median", "worse by", "spread", "bound", "runs", "verdict")
	for _, wl := range man.Workloads {
		for _, metric := range man.EndToEnd {
			a, b := sides[0][wl.Name][metric.Name], sides[1][wl.Name][metric.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-13s %-13s missing from one side\n", wl.Name, metric.Name)
				code = 1
				continue
			}
			aq1, am, aq3 := quartiles(a)
			bq1, bm, bq3 := quartiles(b)
			worse := (bm - am) / am
			if metric.Better == higher {
				worse = -worse
			}
			spread := max((aq3-aq1)/am, (bq3-bq1)/bm)
			bound := 0.0
			if metric.Bound != nil {
				bound = *metric.Bound
			}
			verdict := "ok"
			switch {
			case spread > bound:
				verdict = "unresolved"
			case worse > bound:
				verdict = "regress"
			}
			if verdict != "ok" {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-13s %12.5g %12.5g %+8.1f%% %6.1f%% %6.1f%% %3d/%-3d %s\n",
				wl.Name, metric.Name, am, bm, 100*worse, 100*spread, 100*bound, len(a), len(b), verdict)
		}
	}
	fmt.Fprintln(w, "worse by: how much worse b's median is than a's, as a share of a's; spread: widest interquartile range of either side's runs, as a share of its median")
	return code
}
