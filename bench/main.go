// Command eclipse-perf is the repository benchmark: it boots a real
// 4-node EclipseMR cluster in this process over loopback TCP, drives it
// through the public cluster.Cluster facade with closed-loop clients,
// checks every output against a sequential reference, and prints every
// metric by name with its unit. See README.md in this directory.
//
//	bench/run.sh --workload wc_warm --seed 1 --seconds 10 --trace 0
//	go run -C bench . -seed 1                  # all six workloads
//	go run -C bench . -compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	// Registers the MapReduce applications the workloads run.
	_ "eclipsemr/internal/apps"
)

// metricValue is one reported number, as the last output line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of the -out file: a result plus what produced it.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	InputsSHA1 string `json:"inputs_sha1"`
	// MachineFactor is the calibration kernel's median time over the
	// measured phase as a share of calibReference (above 1: the machine
	// ran slower than the reference); AsMeasured holds the time-based
	// end-to-end metrics before they were scaled by it.
	MachineFactor float64            `json:"machine_factor"`
	AsMeasured    map[string]float64 `json:"as_measured,omitempty"`
	// hiNote says which percentile op_hi_s is at this sample count.
	hiNote string
	result
}

func main() {
	var (
		cfg      runConfig
		trace    int
		compare  bool
		out      string
		manifest string
	)
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: all, or one of the names in BENCHMARK.json")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the input generators (the only source of randomness)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&cfg.ops, "ops", 0, "run exactly this many operations instead of -seconds (repeatable counters)")
	flag.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer metrics; 0: untraced run, reports the end-to-end metrics")
	flag.BoolVar(&cfg.short, "short", false, "1/8-size inputs and one set-up (smoke tests)")
	flag.StringVar(&cfg.outDir, "outdir", "out", "directory for traces, data directories and other files the run leaves or removes")
	flag.StringVar(&out, "out", "", "append each result as a JSON line to this file (input of -compare)")
	flag.StringVar(&manifest, "manifest", "../BENCHMARK.json", "BENCHMARK.json, read by -compare for the bounds")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: -compare a.jsonl b.jsonl")
	flag.Parse()
	cfg.traced = trace != 0

	//lint:ignore ctxflow the benchmark's main is an entry point: this is the one root context, cancelled by SIGINT/SIGTERM
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := 0
	switch {
	case compare:
		code = compareFiles(os.Stdout, manifest, flag.Args())
	case cfg.workload == "all":
		code = runAll(ctx, os.Args[1:])
	default:
		rec, err := runWorkload(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eclipse-perf: %s: %v\n", cfg.workload, err)
			code = 1
			break
		}
		if err := emit(os.Stdout, rec, out); err != nil {
			fmt.Fprintf(os.Stderr, "eclipse-perf: %v\n", err)
			code = 1
		}
	}
	stop()
	os.Exit(code)
}

// runAll runs every workload in a fresh child process each, so one
// workload's peak memory does not leak into the next one's.
func runAll(ctx context.Context, args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "eclipse-perf: %v\n", err)
		return 1
	}
	code := 0
	for _, d := range workloadDefs {
		// A later -workload overrides the one in args.
		cmd := exec.CommandContext(ctx, self, append(append([]string(nil), args...), "-workload", d.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "eclipse-perf: %s: %v\n", d.name, err)
			code = 1
		}
	}
	return code
}

// runWorkload sets one workload up, measures it and tears it down. An
// operation that fails is counted, not fatal; only a run that cannot
// measure at all returns an error.
func runWorkload(ctx context.Context, cfg runConfig) (record, error) {
	r, err := setUp(ctx, cfg)
	if err != nil {
		return record{}, err
	}
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		InputsSHA1: r.digest,
	}
	rec.Metrics = make(map[string]metricValue)
	length := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.traced {
		p := r.measure(ctx, length, cfg.ops, minOps)
		values, asMeasured := r.endToEnd(p)
		r.h.close(ctx)
		report(&rec, endToEndMetrics, values, p)
		rec.AsMeasured = asMeasured
		rec.MachineFactor, _ = r.cal.factor(p.before.at, p.after.at)
		if n := p.attempted - p.failed; n > 0 {
			rec.hiNote = fmt.Sprintf("op_hi_s is p%.1f: sample %d of %d ascending, %d beyond it",
				100*float64(hiIndex(n)+1)/float64(n), hiIndex(n)+1, n, n-1-hiIndex(n))
		}
		return rec, nil
	}

	// Traced run: an untraced half for the overhead baseline, then the
	// same closed loop with the runner's spans kept and the engine's
	// tracer on. The per-layer numbers describe the traced half.
	rec.Trace = 1
	untraced := r.measure(ctx, length/2, cfg.ops, minOps/2)
	r.h.c.SetTracing(true)
	traced := r.measure(ctx, length/2, cfg.ops, minOps/2)
	r.h.c.SetTracing(false)
	values := r.regMetrics(traced)
	traceValues, err := r.traceMetrics(ctx, untraced, traced)
	var probeValues map[string]float64
	if err == nil {
		probeValues, err = r.probeMetrics(ctx)
	}
	r.h.close(ctx)
	if err != nil {
		return record{}, err
	}
	maps.Copy(values, traceValues)
	maps.Copy(values, probeValues)
	values["cluster.close_s"] = r.h.rec.seconds(spanClose)
	traced.attempted += untraced.attempted
	traced.failed += untraced.failed
	traced.errs = append(untraced.errs, traced.errs...)
	report(&rec, perLayerMetrics, values, traced)
	return rec, nil
}

// report fills the record from the computed values: every metric of defs,
// 0 for one the workload did not produce.
func report(rec *record, defs []metricDef, values map[string]float64, p phase) {
	for _, d := range defs {
		rec.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	rec.Attempted, rec.Failed = p.attempted, p.failed
	rec.Correct = p.failed == 0 && p.attempted > 0
	for _, e := range p.errs {
		fmt.Fprintf(os.Stderr, "eclipse-perf: %s: failed: %s\n", rec.Workload, e)
	}
}

// emit prints the record — a header, one "name value unit" line per
// metric, and the result object as the last line — and appends it to the
// -out file when one is named.
func emit(w *os.File, rec record, out string) error {
	fmt.Fprintf(w, "# workload=%s seed=%d trace=%d nproc=%d gomaxprocs=%d go=%s inputs_sha1=%s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.NProc, rec.GoMaxProcs, rec.GoVersion, rec.InputsSHA1)
	fmt.Fprintf(w, "# ops_attempted=%d ops_failed=%d\n", rec.Attempted, rec.Failed)
	if rec.Trace == 0 {
		fmt.Fprintf(w, "# %s\n", rec.hiNote)
		fmt.Fprintf(w, "# machine_factor=%.3f: times are scaled to a machine that runs the calibration kernel in %v; as measured:", rec.MachineFactor, calibReference)
		for _, d := range endToEndMetrics {
			if v, ok := rec.AsMeasured[d.Name]; ok {
				fmt.Fprintf(w, " %s=%.5g", d.Name, v)
			}
		}
		fmt.Fprintln(w)
	}
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rec.Metrics[name]
		fmt.Fprintf(w, "%-36s %s %s\n", name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	if out != "" {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	last, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}
