package simcluster

import (
	"testing"
)

// The experiment tests assert the paper's qualitative findings — who
// wins, by roughly what factor, where crossovers fall — not absolute
// numbers (the substrate is a simulator, not the authors' testbed).

// skipIfExpensive gates the Fig. 6(b), 7, 9 and 10 sweeps under -race,
// where the four take 115 s on a 2-core VM (6 s without it). The
// simulations are deterministic, so skipping them under -race loses no
// assertion diversity per run; the model's event-queue concurrency stays
// race-checked by the fast Model* tests and the Fig5/6a/8 sweeps that
// still run.
func skipIfExpensive(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("expensive figure sweep: ~20x slower under -race")
	}
}

func TestFig5Shapes(t *testing.T) {
	a, b, err := Fig5(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		t.Logf("Fig5 nodes=%2d  (a) DHT=%6.0f HDFS=%6.0f MB/s   (b) DHT=%6.0f HDFS=%6.0f MB/s",
			a[i].Nodes, a[i].DHTMBps, a[i].HDFSMBps, b[i].DHTMBps, b[i].HDFSMBps)
	}
	for i := range a {
		// (a) pure read latency: the two file systems perform alike.
		if ratio := a[i].DHTMBps / a[i].HDFSMBps; ratio < 0.8 || ratio > 1.25 {
			t.Errorf("Fig5a nodes=%d: DHT/HDFS = %.2f, want ~1", a[i].Nodes, ratio)
		}
		// (b) whole-job throughput: the DHT FS holds its rate, HDFS pays
		// NameNode + container + scheduling overheads.
		if b[i].DHTMBps < 2*b[i].HDFSMBps {
			t.Errorf("Fig5b nodes=%d: DHT %.0f not ≫ HDFS %.0f", b[i].Nodes, b[i].DHTMBps, b[i].HDFSMBps)
		}
		// HDFS loses far more of its per-task throughput at the job level
		// than the DHT file system does.
		if b[i].HDFSMBps/a[i].HDFSMBps > 0.8*b[i].DHTMBps/a[i].DHTMBps {
			t.Errorf("Fig5 nodes=%d: HDFS job/task ratio %.2f not well below DHT's %.2f",
				a[i].Nodes, b[i].HDFSMBps/a[i].HDFSMBps, b[i].DHTMBps/a[i].DHTMBps)
		}
	}
	// Both metrics scale with cluster size.
	if a[len(a)-1].DHTMBps < 3*a[0].DHTMBps {
		t.Errorf("Fig5a DHT did not scale: %v -> %v", a[0].DHTMBps, a[len(a)-1].DHTMBps)
	}
}

func TestFig6aLAFBeatsDelay(t *testing.T) {
	rows, err := Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("Fig6a %-14s LAF=%6.0fs Delay=%6.0fs", r.App, r.LAFSec, r.DelaySec)
		// Sort is shuffle-bound: both schedulers saturate the network, so
		// we only require parity there; the read/compute-bound apps must
		// show LAF strictly ahead.
		if r.App == "sort" {
			if r.LAFSec > 1.02*r.DelaySec {
				t.Errorf("Fig6a sort: LAF %.0f clearly worse than Delay %.0f", r.LAFSec, r.DelaySec)
			}
			continue
		}
		if r.LAFSec >= r.DelaySec {
			t.Errorf("Fig6a %s: LAF %.0f not faster than Delay %.0f", r.App, r.LAFSec, r.DelaySec)
		}
	}
}

func TestFig6bIterative(t *testing.T) {
	skipIfExpensive(t)
	rows, err := Fig6b()
	if err != nil {
		t.Fatal(err)
	}
	var kmeans, pagerank Fig6bRow
	for _, r := range rows {
		t.Logf("Fig6b %-9s LAF=%6.0f LAF+oC=%6.0f Delay=%6.0f Delay+oC=%6.0f",
			r.App, r.LAFSec, r.LAFOCacheSec, r.DelaySec, r.DelayOCacheSec)
		if r.App == "kmeans" {
			kmeans = r
		} else {
			pagerank = r
		}
		// LAF at least matches Delay; oCache for iteration outputs does
		// not help (the paper's OS-page-cache observation).
		if r.LAFSec > r.DelaySec*1.02 {
			t.Errorf("Fig6b %s: LAF %.0f worse than Delay %.0f", r.App, r.LAFSec, r.DelaySec)
		}
		if diff := r.LAFOCacheSec / r.LAFSec; diff < 0.95 || diff > 1.05 {
			t.Errorf("Fig6b %s: oCache changed time by %.2fx, paper found no effect", r.App, diff)
		}
	}
	// The LAF/Delay gap is larger for k-means (4000 mappers) than for
	// page rank (240 mappers, no load-balancing pressure).
	kGap := kmeans.DelaySec / kmeans.LAFSec
	pGap := pagerank.DelaySec / pagerank.LAFSec
	if kGap < pGap {
		t.Errorf("Fig6b: kmeans gap %.2f not larger than pagerank gap %.2f", kGap, pGap)
	}
}

func TestFig7SkewTradeoffs(t *testing.T) {
	skipIfExpensive(t)
	rows, err := Fig7(nil)
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string][]Fig7Row{}
	for _, r := range rows {
		t.Logf("Fig7 %-11s cache=%.1fGB exec=%6.0fs hit=%5.1f%% loadσ=%6.1f",
			r.Policy, r.CacheGB, r.ExecSec, 100*r.HitRatio, r.LoadStdDev)
		byPolicy[r.Policy] = append(byPolicy[r.Policy], r)
	}
	last := func(p string) Fig7Row { rs := byPolicy[p]; return rs[len(rs)-1] }
	// Delay caches aggressively too — its hit ratio must be substantial
	// (the paper measures Delay's hit ratio highest; in our cost model
	// the hot owners' caches thrash under Delay — the §III-D mechanism —
	// which caps it slightly below LAF's; see EXPERIMENTS.md).
	if last("delay").HitRatio < 0.5*last("laf-a1").HitRatio {
		t.Errorf("Fig7b: delay hit %.2f collapsed vs laf-a1 %.2f",
			last("delay").HitRatio, last("laf-a1").HitRatio)
	}
	// LAF executes much faster thanks to load balance (paper: up to
	// 2.86× at the largest cache).
	for _, p := range []string{"laf-a0.001", "laf-a1"} {
		if last(p).ExecSec >= last("delay").ExecSec {
			t.Errorf("Fig7a: %s %.0fs not faster than delay %.0fs",
				p, last(p).ExecSec, last("delay").ExecSec)
		}
	}
	// LAF's load stddev is far below Delay's (paper: 4.07 vs 13.07).
	if last("laf-a0.001").LoadStdDev*2 > last("delay").LoadStdDev {
		t.Errorf("Fig7: LAF load stddev %.1f not ≪ delay %.1f",
			last("laf-a0.001").LoadStdDev, last("delay").LoadStdDev)
	}
	// Hit ratio grows and execution time falls with cache size, for every
	// policy.
	for p, rs := range byPolicy {
		if rs[len(rs)-1].HitRatio <= rs[0].HitRatio {
			t.Errorf("Fig7b %s: hit ratio did not grow with cache", p)
		}
		if rs[len(rs)-1].ExecSec >= rs[0].ExecSec {
			t.Errorf("Fig7a %s: exec time did not fall with cache", p)
		}
	}
	// α=0.001 yields a higher hit ratio than α=1 (paper: ~13.2% vs ~10.8%).
	if last("laf-a0.001").HitRatio <= last("laf-a1").HitRatio {
		t.Errorf("Fig7b: α=0.001 hit %.3f not above α=1 %.3f",
			last("laf-a0.001").HitRatio, last("laf-a1").HitRatio)
	}
}

func TestFig8ConcurrentJobs(t *testing.T) {
	rows, err := Fig8(nil)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		app     string
		cacheGB int
	}
	laf := map[key]float64{}
	delay := map[key]float64{}
	for _, r := range rows {
		t.Logf("Fig8 %-12s %-5s cache=%dGB exec=%6.0fs hit=%5.1f%%",
			r.App, r.Policy, r.CacheGB, r.ExecSec, 100*r.HitRatio)
		k := key{r.App, r.CacheGB}
		if r.Policy == "laf" {
			laf[k] = r.ExecSec
		} else {
			delay[k] = r.ExecSec
		}
	}
	for k, l := range laf {
		if l > delay[k]*1.05 {
			t.Errorf("Fig8 %s cache=%dGB: LAF %.0f worse than Delay %.0f", k.app, k.cacheGB, l, delay[k])
		}
	}
}

func TestFig9FrameworkComparison(t *testing.T) {
	skipIfExpensive(t)
	rows, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("Fig9 %-14s Eclipse=%7.0f Spark=%7.0f Hadoop=%7.0f",
			r.App, r.EclipseSec, r.SparkSec, r.HadoopSec)
		if r.App == "pagerank" {
			// The paper reports Spark ~15% ahead over the full 2-iteration
			// job while also showing (Fig. 10c) that Spark's first
			// iteration is much slower; at 2 iterations those pull in
			// opposite directions, so we assert the two frameworks land
			// close (within ~30% either way) and leave the steady-state
			// crossover to the Fig. 10 test. Hadoop must remain slowest.
			ratio := r.EclipseSec / r.SparkSec
			if ratio < 0.7 || ratio > 1.45 {
				t.Errorf("Fig9 pagerank: Eclipse/Spark = %.2f, want ~1±0.3", ratio)
			}
			if r.HadoopSec <= r.SparkSec || r.HadoopSec <= r.EclipseSec {
				t.Errorf("Fig9 pagerank: Hadoop %.0f not slowest (Spark %.0f, Eclipse %.0f)",
					r.HadoopSec, r.SparkSec, r.EclipseSec)
			}
			continue
		}
		// Everywhere else EclipseMR is the fastest framework.
		if r.EclipseSec >= r.SparkSec {
			t.Errorf("Fig9 %s: EclipseMR %.0f not faster than Spark %.0f", r.App, r.EclipseSec, r.SparkSec)
		}
		if !r.SkipHadoop && r.EclipseSec >= r.HadoopSec {
			t.Errorf("Fig9 %s: EclipseMR %.0f not faster than Hadoop %.0f", r.App, r.EclipseSec, r.HadoopSec)
		}
	}
	// k-means: EclipseMR ~3.5× faster than Spark; logistic regression ~2.5×.
	for _, r := range rows {
		switch r.App {
		case "kmeans":
			if ratio := r.SparkSec / r.EclipseSec; ratio < 2 || ratio > 5 {
				t.Errorf("Fig9 kmeans: Spark/Eclipse = %.2f, want ~3.5", ratio)
			}
		case "logreg":
			if ratio := r.SparkSec / r.EclipseSec; ratio < 1.8 || ratio > 4 {
				t.Errorf("Fig9 logreg: Spark/Eclipse = %.2f, want ~2.5", ratio)
			}
		}
	}
}

func TestFig10IterationShapes(t *testing.T) {
	skipIfExpensive(t)
	figs, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for app, rows := range figs {
		for _, r := range rows {
			t.Logf("Fig10 %-9s iter=%2d Eclipse=%6.0f Spark=%6.0f", app, r.Iteration, r.EclipseSec, r.SparkSec)
		}
		// Spark's first iteration is much slower than its later ones (RDD
		// construction).
		if rows[0].SparkSec < 1.3*rows[1].SparkSec {
			t.Errorf("Fig10 %s: Spark iteration 1 (%.0f) not ≫ iteration 2 (%.0f)",
				app, rows[0].SparkSec, rows[1].SparkSec)
		}
		mid := rows[4]
		switch app {
		case "kmeans", "logreg":
			// EclipseMR runs subsequent iterations ~3× faster than Spark.
			if ratio := mid.SparkSec / mid.EclipseSec; ratio < 2 || ratio > 5 {
				t.Errorf("Fig10 %s: Spark/Eclipse steady-state = %.2f, want ~3", app, ratio)
			}
		case "pagerank":
			// Spark is faster on subsequent iterations, but EclipseMR is at
			// most ~30% slower; Spark's final iteration spikes (it writes
			// the final output to storage).
			if mid.SparkSec >= mid.EclipseSec {
				t.Errorf("Fig10 pagerank: Spark steady-state %.0f not faster than EclipseMR %.0f",
					mid.SparkSec, mid.EclipseSec)
			}
			if mid.EclipseSec > 1.4*mid.SparkSec {
				t.Errorf("Fig10 pagerank: EclipseMR steady-state %.0f more than ~30%% behind Spark %.0f",
					mid.EclipseSec, mid.SparkSec)
			}
			last := rows[len(rows)-1]
			if last.SparkSec < 1.2*mid.SparkSec {
				t.Errorf("Fig10 pagerank: Spark final iteration %.0f did not spike over %.0f",
					last.SparkSec, mid.SparkSec)
			}
		}
	}
}
