package main

import (
	"context"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	// seconds is how long the measured phase runs; ops, when positive,
	// replaces the clock with a fixed number of operations.
	seconds float64
	ops     int
	traced  bool
	short   bool
	outDir  string
}

const (
	// setupRepeats is how many times a run sets up (generate, boot,
	// upload, warm up); setup_s is the fastest and the last one is kept.
	setupRepeats = 3
	// minOps is the fewest operations a measured phase runs, whatever the
	// clock says: the percentiles need the samples.
	minOps = 30
	// hiBeyond is how many samples lie beyond the reported high
	// percentile.
	hiBeyond = 10
	// A phase is cut into phaseStretches stretches, each scaled by the
	// machine speed measured during it (see phase.scaled).
	phaseStretches = 5
)

// opDone is one completed operation.
type opDone struct {
	end     time.Time
	cpu     time.Duration // the process's CPU time at completion
	latency time.Duration
	bytes   int64
	ok      bool
}

// phase is what one measured phase observed.
type phase struct {
	done      []opDone // in completion order
	attempted int
	failed    int
	errs      []string // first few failures, for the report
	before    counters
	after     counters
}

// totals is a phase added up: how long it took, the CPU time and user
// bytes it covers, and the latencies of its successful operations,
// ascending.
type totals struct {
	wall, cpu time.Duration
	bytes     int64
	latencies []time.Duration
}

func (t totals) mibPerSec() float64 { return float64(t.bytes) / mib / t.wall.Seconds() }

// scaled adds the phase up at the reference machine speed: it is cut into
// phaseStretches stretches of equally many consecutive completions, and
// each stretch's times are divided by the machine-speed factor of the
// calibration points taken during it (see calibration). A nil calibration
// leaves the times as measured.
func (p phase) scaled(cal *calibration) totals {
	var t totals
	n := len(p.done)
	whole, _ := cal.factor(p.before.at, p.after.at)
	start, cpu := p.before.at, p.before.cpu
	for g := 0; g < phaseStretches; g++ {
		lo, hi := g*n/phaseStretches, (g+1)*n/phaseStretches
		if lo == hi {
			continue
		}
		last := p.done[hi-1]
		f, ok := cal.factor(start, last.end)
		if !ok {
			f = whole
		}
		t.wall += scale(last.end.Sub(start), f)
		t.cpu += scale(last.cpu-cpu, f)
		for _, d := range p.done[lo:hi] {
			t.bytes += d.bytes
			if d.ok {
				t.latencies = append(t.latencies, scale(d.latency, f))
			}
		}
		start, cpu = last.end, last.cpu
	}
	slices.Sort(t.latencies)
	return t
}

// scale converts a measured duration to the reference machine speed.
func scale(d time.Duration, factor float64) time.Duration {
	return time.Duration(float64(d) / factor)
}

// run is one workload instance being driven: the kept set-up plus the
// per-client operation cursors, which continue across phases so every
// job ID of a run is unique.
type run struct {
	cfg  runConfig
	w    workload
	h    *harness
	cal  *calibration
	next []int
	// setups holds the time of each set-up at the reference machine speed,
	// rawSetups as measured; setupRec the runner spans of the kept one.
	setups    []time.Duration
	rawSetups []time.Duration
	setupRec  *recorder
	// uploadAmp is dhtfs bytes written per user byte uploaded, over the
	// kept set-up's upload.
	uploadAmp float64
	digest    string
}

// setUp generates the inputs, boots a cluster, uploads and warms up,
// setupRepeats times (once when traced: setup_s is not reported then),
// keeping the last.
func setUp(ctx context.Context, cfg runConfig) (*run, error) {
	divisor := 1
	if cfg.short {
		divisor = 8
	}
	w, err := newWorkload(cfg.workload, divisor)
	if err != nil {
		return nil, err
	}
	cal, err := newCalibration()
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, w: w, cal: cal, next: make([]int, w.clients())}
	repeats := setupRepeats
	if cfg.traced || cfg.short {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if r.h != nil {
			r.h.close(ctx)
			r.h = nil
		}
		if err := r.setUpOnce(ctx); err != nil {
			if r.h != nil {
				r.h.close(ctx)
			}
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
	}
	return r, nil
}

func (r *run) setUpOnce(ctx context.Context) error {
	rec := newRecorder()
	r.setupRec = rec
	began := r.cal.point().at
	start := time.Now()
	r.w.generate(r.cfg.seed)
	r.cal.point()
	h, err := boot(ctx, rec, r.w.shape(), r.cfg.outDir, r.cfg.traced)
	if err != nil {
		return err
	}
	r.h = h
	r.cal.point()
	writtenBefore := h.c.MetricsSnapshot().Get("fs.bytes.written")
	if err := r.w.load(ctx, h); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	elapsed := time.Since(start)
	r.cal.point()

	// Untimed: the oracle and the input digest are the runner's own work.
	written := h.c.MetricsSnapshot().Get("fs.bytes.written") - writtenBefore
	if up := rec.uploaded.Load(); up > 0 {
		r.uploadAmp = float64(written) / float64(up)
	}
	sum := sha1.New()
	for _, in := range r.w.inputs() {
		sum.Write([]byte(in.name))
		sum.Write(in.data)
	}
	r.digest = hex.EncodeToString(sum.Sum(nil))
	if err := r.w.reference(); err != nil {
		return fmt.Errorf("reference: %w", err)
	}

	start = time.Now()
	wctx, cancel := context.WithTimeout(ctx, opTimeout)
	err = r.w.warmup(wctx, h)
	cancel()
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	elapsed += time.Since(start)
	f, _ := r.cal.factor(began, r.cal.point().at)
	r.setups = append(r.setups, scale(elapsed, f))
	r.rawSetups = append(r.rawSetups, elapsed)
	return nil
}

// measure runs the closed loop: every client issues its next operation as
// soon as its previous one completes, for d and at least atLeast
// operations (or exactly total operations, when total > 0).
func (r *run) measure(ctx context.Context, d time.Duration, total, atLeast int) phase {
	h := r.h
	// A fresh recorder per phase, so the spans of the untraced half do not
	// leak into the traced half's numbers.
	h.rec = newRecorder()
	h.rec.keep = r.cfg.traced
	var (
		mu      sync.Mutex
		p       phase
		started int
		wg      sync.WaitGroup
		// gate lets the machine-speed kernel run on an otherwise idle
		// process: operations hold it shared, a calibration point takes it
		// exclusively, so the other clients finish the operation they are
		// in and wait out the point (a few milliseconds, calibEvery apart).
		gate sync.RWMutex
	)
	p.before = h.sample()
	lastCal := r.cal.point().at
	deadline := p.before.at.Add(d)
	// claim hands a client its turn, or false once the phase is over.
	claim := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() != nil {
			return false
		}
		if total > 0 {
			if started >= total {
				return false
			}
		} else if started >= atLeast && time.Now().After(deadline) {
			return false
		}
		started++
		return true
	}
	for client := range r.next {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for claim() {
				i := r.next[client]
				r.next[client]++
				octx, cancel := context.WithTimeout(ctx, opTimeout)
				gate.RLock()
				res := r.w.op(octx, h, client, i)
				gate.RUnlock()
				cancel()
				mu.Lock()
				p.attempted++
				p.done = append(p.done, opDone{
					end: time.Now(), cpu: processCPU(),
					latency: res.latency, bytes: res.bytes, ok: res.err == nil,
				})
				if res.err != nil {
					p.failed++
					if len(p.errs) < 3 {
						p.errs = append(p.errs, fmt.Sprintf("client %d op %d: %v", client, i, res.err))
					}
				}
				mu.Unlock()
				// Client 0 takes the calibration points, between its
				// operations.
				if client == 0 && time.Since(lastCal) >= calibEvery {
					gate.Lock()
					lastCal = r.cal.point().at
					gate.Unlock()
				}
			}
		}(client)
	}
	wg.Wait()
	p.after = h.sample()
	return p
}

// hiIndex is the index, in ascending latencies, of the highest sample that
// still has hiBeyond samples beyond it (the last one when there are too
// few).
func hiIndex(n int) int {
	if n > hiBeyond {
		return n - 1 - hiBeyond
	}
	return n - 1
}

// endToEnd computes the six user-visible metrics of an untraced phase —
// times at the reference machine speed — and, for the record, the same
// times as measured.
func (r *run) endToEnd(p phase) (reported, asMeasured map[string]float64) {
	reported = timings(p.scaled(r.cal), slices.Min(r.setups))
	reported["peak_rss_mb"] = peakRSSMiB()
	asMeasured = timings(p.scaled(nil), slices.Min(r.rawSetups))
	return reported, asMeasured
}

// timings computes the time-based end-to-end metrics of a whole phase.
func timings(t totals, setup time.Duration) map[string]float64 {
	m := map[string]float64{"setup_s": setup.Seconds()}
	if t.bytes > 0 && t.wall > 0 {
		m["mb_per_s"] = t.mibPerSec()
		m["cpu_s_per_gb"] = t.cpu.Seconds() / (float64(t.bytes) / (1 << 30))
	}
	if n := len(t.latencies); n > 0 {
		m["op_p50_s"] = t.latencies[n/2].Seconds()
		m["op_hi_s"] = t.latencies[hiIndex(n)].Seconds()
	}
	return m
}
