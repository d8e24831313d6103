// Ablation benchmarks for the design choices called out in DESIGN.md and a
// micro-benchmark of the density estimator. The paper's figures are
// regenerated by `go run ./cmd/eclipse-bench -fig N` (and checked by
// internal/simcluster's TestFig*); the real engine is measured by the
// repository benchmark (bench/, BENCHMARK.json), not here.
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
