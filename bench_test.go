// Benchmarks regenerating every table and figure of the paper's §III
// (one benchmark per figure, reporting the figure's own metrics via
// ReportMetric), plus ablation benchmarks for the design choices called
// out in DESIGN.md and a micro-benchmark of the density estimator. The
// real engine is measured by the repository benchmark (bench/,
// BENCHMARK.json), not here.
//
//	go test -bench=. -benchmem
package eclipsemr_test

import (
	"fmt"
	"testing"

	"eclipsemr/internal/kde"
	"eclipsemr/internal/simcluster"
	"eclipsemr/internal/workloads"
)

// ---------------------------------------------------------------------
// Figure benchmarks (simulated at the paper's nominal scale)
// ---------------------------------------------------------------------

func BenchmarkFig5aIOThroughputPerTask(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, _, err := simcluster.Fig5([]int{38})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a[0].DHTMBps, "dht-MB/s")
		b.ReportMetric(a[0].HDFSMBps, "hdfs-MB/s")
	}
}

func BenchmarkFig5bIOThroughputPerJob(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := simcluster.Fig5([]int{38})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].DHTMBps, "dht-MB/s")
		b.ReportMetric(rows[0].HDFSMBps, "hdfs-MB/s")
	}
}

func BenchmarkFig6aNonIterative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := simcluster.Fig6a()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.LAFSec, r.App+"-laf-s")
			b.ReportMetric(r.DelaySec, r.App+"-delay-s")
		}
	}
}

func BenchmarkFig6bIterative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := simcluster.Fig6b()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.LAFSec, r.App+"-laf-s")
			b.ReportMetric(r.DelaySec, r.App+"-delay-s")
		}
	}
}

func BenchmarkFig7aSkewExecTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := simcluster.Fig7([]float64{1.5})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.ExecSec, r.Policy+"-s")
		}
	}
}

func BenchmarkFig7bSkewHitRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := simcluster.Fig7([]float64{1.5})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(100*r.HitRatio, r.Policy+"-hit%")
		}
	}
}

func BenchmarkFig8ConcurrentJobs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := simcluster.Fig8([]int{8})
		if err != nil {
			b.Fatal(err)
		}
		var laf, delay float64
		for _, r := range rows {
			if r.ExecSec > laf && r.Policy == "laf" {
				laf = r.ExecSec
			}
			if r.ExecSec > delay && r.Policy == "delay" {
				delay = r.ExecSec
			}
		}
		b.ReportMetric(laf, "laf-makespan-s")
		b.ReportMetric(delay, "delay-makespan-s")
	}
}

func BenchmarkFig9FrameworkComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := simcluster.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.EclipseSec, r.App+"-eclipse-s")
			b.ReportMetric(r.SparkSec, r.App+"-spark-s")
		}
	}
}

func benchmarkFig10(b *testing.B, app string) {
	for i := 0; i < b.N; i++ {
		figs, err := simcluster.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		rows := figs[app]
		b.ReportMetric(rows[0].SparkSec, "spark-iter1-s")
		b.ReportMetric(rows[4].SparkSec, "spark-steady-s")
		b.ReportMetric(rows[4].EclipseSec, "eclipse-steady-s")
	}
}

func BenchmarkFig10aKMeansIterations(b *testing.B)   { benchmarkFig10(b, "kmeans") }
func BenchmarkFig10bLogRegIterations(b *testing.B)   { benchmarkFig10(b, "logreg") }
func BenchmarkFig10cPageRankIterations(b *testing.B) { benchmarkFig10(b, "pagerank") }

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------

// BenchmarkAblationShuffle quantifies proactive shuffling (§II-D) by
// running the shuffle-bound sort workload with and without it.
func BenchmarkAblationShuffle(b *testing.B) {
	run := func(proactive bool) float64 {
		m, err := simcluster.NewModel(simcluster.DefaultParams(), simcluster.Eclipse, simcluster.LAF(0.001))
		if err != nil {
			b.Fatal(err)
		}
		m.SetProactiveShuffle(proactive)
		var stats simcluster.JobStats
		if err := m.Submit(simcluster.JobDesc{
			Name: "sort", App: simcluster.ProfileSort, InputBytes: 250 << 30, Seed: 1,
		}, 0, func(s simcluster.JobStats) { stats = s }); err != nil {
			b.Fatal(err)
		}
		m.Run()
		return stats.Elapsed()
	}
	for i := 0; i < b.N; i++ {
		proactive := run(true)
		pull := run(false)
		b.ReportMetric(proactive, "proactive-s")
		b.ReportMetric(pull, "pull-s")
		if proactive >= pull {
			b.Fatalf("proactive shuffle (%.0fs) not faster than pull (%.0fs)", proactive, pull)
		}
	}
}

// BenchmarkAblationAlpha sweeps the LAF weight factor on the skewed
// workload (the paper's §III-C performance spectrum).
func BenchmarkAblationAlpha(b *testing.B) {
	for _, alpha := range []float64{0.001, 0.1, 1} {
		b.Run(fmt.Sprintf("alpha=%g", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := simcluster.NewModel(simcluster.DefaultParams(), simcluster.Eclipse, simcluster.LAF(alpha))
				if err != nil {
					b.Fatal(err)
				}
				var stats simcluster.JobStats
				if err := m.Submit(simcluster.JobDesc{
					Name: "grep", App: simcluster.ProfileGrep, InputBytes: 90 << 30,
					BlockKeys: workloads.TwoNormalKeys(13, 720, 0.22, 0.71, 0.04, 0.65),
				}, 0, func(s simcluster.JobStats) { stats = s }); err != nil {
					b.Fatal(err)
				}
				m.Run()
				b.ReportMetric(stats.Elapsed(), "exec-s")
			}
		})
	}
}

// BenchmarkAblationKDEBandwidth sweeps the box-kernel bandwidth k: larger
// k smooths the estimated PDF (§II-E).
func BenchmarkAblationKDEBandwidth(b *testing.B) {
	keys := workloads.TwoNormalKeys(3, 1<<14, 0.25, 0.75, 0.03, 0.5)
	for _, bw := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("k=%d", bw), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est, err := kde.New(kde.Config{Bins: 4096, Bandwidth: bw, Alpha: 0.5, Window: 1024})
				if err != nil {
					b.Fatal(err)
				}
				for _, k := range keys {
					est.Add(k)
				}
				if _, err := est.Partition(40); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Scheduler and placement costs
// ---------------------------------------------------------------------

// BenchmarkKDEAdd measures density-estimator updates, the per-task cost
// the LAF scheduler adds to the submission path.
func BenchmarkKDEAdd(b *testing.B) {
	est, err := kde.New(kde.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	keys := workloads.UniformKeys(1, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Add(keys[i%len(keys)])
	}
}
