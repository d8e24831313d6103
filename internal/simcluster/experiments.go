package simcluster

import (
	"fmt"
	"sort"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/workloads"
)

// This file regenerates every table and figure of the paper's §III. Each
// Fig* function runs the simulation(s) behind one figure and returns the
// same series the paper plots; cmd/eclipse-bench prints them and
// experiments_test.go asserts their shape.

// overrideFw swaps a model's framework overheads (used by Figure 5, which
// measures raw IO with and without framework overheads).
func (m *Model) overrideFw(fw FrameworkParams) { m.fw = fw }

// SetProactiveShuffle toggles EclipseMR's proactive shuffle (§II-D); the
// shuffle ablation benchmark disables it to measure its contribution.
func (m *Model) SetProactiveShuffle(enabled bool) { m.noProactive = !enabled }

const gb = int64(1) << 30

// dfsioProfile is a pure streaming-read workload (DFSIO).
var dfsioProfile = AppProfile{Name: "dfsio", MapCost: 1e-10, ReduceCost: 0, ShuffleRatio: 0, OutputRatio: 0}

// Fig5Row is one point of Figure 5: aggregate read throughput (MB/s) at a
// node count, for the DHT file system and HDFS.
type Fig5Row struct {
	Nodes    int
	DHTMBps  float64
	HDFSMBps float64
}

// Fig5 reproduces Figures 5(a) and 5(b): DFSIO read throughput while
// varying the cluster size. The (a) metric divides bytes by map-task
// execution time only — framework overheads (NameNode lookups, container
// initialization, job scheduling) are excluded, so both file systems
// perform alike. The (b) metric divides by whole-job execution time,
// which charges HDFS/Hadoop for those overheads.
func Fig5(nodeCounts []int) (a, b []Fig5Row, err error) {
	if len(nodeCounts) == 0 {
		nodeCounts = []int{6, 14, 22, 30, 38}
	}
	// run returns (bytes / Σ read time × total slots, bytes / job time):
	// the paper's per-map-task metric (a) and per-job metric (b).
	run := func(nodes int, kind Framework) (perTask, perJob float64, err error) {
		p := DefaultParams()
		p.Nodes = nodes
		if nodes < p.RackSize {
			p.RackSize = nodes
		}
		p.CachePerNode = 1 // effectively no cache: DFSIO is a cold read
		// DFSIO measures the file system, not the scheduler: tasks run at
		// their blocks' owners (sticky delay scheduling = static aligned
		// ranges with unlimited wait).
		m, err := NewModel(p, kind, Policy{Kind: "delay", Wait: -1})
		if err != nil {
			return 0, 0, err
		}
		input := int64(nodes) * 50 * p.BlockSize // 50 blocks per node
		var stats JobStats
		if err := m.Submit(JobDesc{Name: "dfsio", App: dfsioProfile, InputBytes: input},
			0, func(s JobStats) { stats = s }); err != nil {
			return 0, 0, err
		}
		m.Run()
		perTask = float64(input) / stats.ReadSeconds * float64(nodes) / 1e6
		perJob = float64(input) / stats.Elapsed() / 1e6
		return perTask, perJob, nil
	}
	for _, n := range nodeCounts {
		dhtA, dhtB, err := run(n, Eclipse)
		if err != nil {
			return nil, nil, err
		}
		hdfsA, hdfsB, err := run(n, Hadoop)
		if err != nil {
			return nil, nil, err
		}
		a = append(a, Fig5Row{Nodes: n, DHTMBps: dhtA, HDFSMBps: hdfsA})
		b = append(b, Fig5Row{Nodes: n, DHTMBps: dhtB, HDFSMBps: hdfsB})
	}
	return a, b, nil
}

// Fig6aRow is one bar pair of Figure 6(a): non-iterative job execution
// time under LAF vs Delay scheduling.
type Fig6aRow struct {
	App      string
	LAFSec   float64
	DelaySec float64
}

// Fig6a reproduces Figure 6(a): single cold-cache 250 GB jobs under the
// two EclipseMR schedulers.
func Fig6a() ([]Fig6aRow, error) {
	apps := []AppProfile{ProfileInvertedIndex, ProfileSort, ProfileWordCount, ProfileGrep}
	var out []Fig6aRow
	for _, app := range apps {
		row := Fig6aRow{App: app.Name}
		for _, pol := range []Policy{LAF(0.001), Delay()} {
			m, err := NewModel(DefaultParams(), Eclipse, pol)
			if err != nil {
				return nil, err
			}
			var stats JobStats
			if err := m.Submit(JobDesc{Name: app.Name, App: app, InputBytes: 250 * gb, Seed: 1},
				0, func(s JobStats) { stats = s }); err != nil {
				return nil, err
			}
			m.Run()
			if pol.Kind == "laf" {
				row.LAFSec = stats.Elapsed()
			} else {
				row.DelaySec = stats.Elapsed()
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig6bRow is one group of Figure 6(b): iterative job execution time for
// LAF and Delay, with and without oCache for iteration outputs.
type Fig6bRow struct {
	App            string
	LAFSec         float64
	LAFOCacheSec   float64
	DelaySec       float64
	DelayOCacheSec float64
}

// Fig6b reproduces Figure 6(b): k-means (250 GB) and page rank (15 GB),
// five iterations, 1 GB cache per server. Enabling oCache for iteration
// outputs changes little — the paper attributes this to the OS page cache
// already holding the freshly written outputs, and the model's next
// iteration never re-reads them from disk either way.
func Fig6b() ([]Fig6bRow, error) {
	jobs := []struct {
		app   AppProfile
		bytes int64
	}{
		{ProfileKMeans, 250 * gb},
		{ProfilePageRank, 15 * gb},
	}
	var out []Fig6bRow
	for _, jd := range jobs {
		row := Fig6bRow{App: jd.app.Name}
		for _, pol := range []Policy{LAF(0.001), Delay()} {
			for _, oCache := range []bool{false, true} {
				m, err := NewModel(DefaultParams(), Eclipse, pol)
				if err != nil {
					return nil, err
				}
				var stats JobStats
				if err := m.Submit(JobDesc{
					Name: jd.app.Name, App: jd.app, InputBytes: jd.bytes,
					Iterations: 5, CacheIterOutputs: oCache, Seed: 2,
				}, 0, func(s JobStats) { stats = s }); err != nil {
					return nil, err
				}
				m.Run()
				switch {
				case pol.Kind == "laf" && !oCache:
					row.LAFSec = stats.Elapsed()
				case pol.Kind == "laf":
					row.LAFOCacheSec = stats.Elapsed()
				case !oCache:
					row.DelaySec = stats.Elapsed()
				default:
					row.DelayOCacheSec = stats.Elapsed()
				}
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig7Row is one cache-size point of Figure 7 for one policy.
type Fig7Row struct {
	Policy     string
	CacheGB    float64
	ExecSec    float64
	HitRatio   float64
	LoadStdDev float64
}

// fig7Workload builds the skewed grep workload of §III-C: 24 jobs, 6410
// map tasks, 90 GB read in total, with block hash keys drawn from two
// merged normal distributions. Jobs sample their blocks from a shared
// 4000-block universe so popular blocks recur and can hit the cache.
func fig7Workload(blockSize int64) [][]hashing.Key {
	const (
		jobsN    = 24
		maps     = 6410
		universe = 4000
	)
	uni := workloads.UniformKeys(11, universe)
	sorted := append([]hashing.Key(nil), uni...)
	//lint:ignore ringcmp ordinal sort backs a successor search; the idx==len reset below supplies the wraparound
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Sample two-normal positions and snap to the nearest universe block,
	// so access frequency is skewed over real stored blocks.
	samples := workloads.TwoNormalKeys(13, maps, 0.22, 0.71, 0.04, 0.65)
	perJob := maps / jobsN
	jobs := make([][]hashing.Key, jobsN)
	for i, s := range samples {
		//lint:ignore ringcmp successor search over the ordinal-sorted universe; idx==len wraps to slot 0
		idx := sort.Search(len(sorted), func(k int) bool { return sorted[k] >= s })
		if idx == len(sorted) {
			idx = 0
		}
		j := i / perJob
		if j >= jobsN {
			j = jobsN - 1
		}
		jobs[j] = append(jobs[j], sorted[idx])
	}
	return jobs
}

// Fig7 reproduces Figures 7(a) and 7(b): execution time and cache hit
// ratio of the skewed grep workload while sweeping the per-server cache
// size, for LAF α=0.001, LAF α=1 and Delay.
func Fig7(cacheGBs []float64) ([]Fig7Row, error) {
	if len(cacheGBs) == 0 {
		cacheGBs = []float64{0, 0.5, 1.0, 1.5}
	}
	policies := []struct {
		name string
		pol  Policy
	}{
		{"laf-a0.001", LAF(0.001)},
		{"laf-a1", LAF(1)},
		{"delay", Delay()},
	}
	const blockSize = 14 << 20 // 6410 maps × 14 MB = 90 GB as in §III-C
	jobs := fig7Workload(blockSize)
	var out []Fig7Row
	for _, pc := range policies {
		for _, cgb := range cacheGBs {
			p := DefaultParams()
			p.BlockSize = blockSize
			p.CachePerNode = int64(cgb * float64(gb))
			if p.CachePerNode == 0 {
				p.CachePerNode = 1 // an empty cache, not "default"
			}
			m, err := NewModel(p, Eclipse, pc.pol)
			if err != nil {
				return nil, err
			}
			var finish float64
			var hits, misses int64
			for ji, keys := range jobs {
				if err := m.Submit(JobDesc{
					Name:       fmt.Sprintf("grep-%02d", ji),
					App:        ProfileGrep,
					InputBytes: int64(len(keys)) * blockSize,
					BlockKeys:  keys,
				}, 0, func(s JobStats) {
					if s.Finish > finish {
						finish = s.Finish
					}
					hits += s.CacheHits
					misses += s.CacheMiss
				}); err != nil {
					return nil, err
				}
			}
			m.Run()
			hr := 0.0
			if hits+misses > 0 {
				hr = float64(hits) / float64(hits+misses)
			}
			out = append(out, Fig7Row{
				Policy:     pc.name,
				CacheGB:    cgb,
				ExecSec:    finish,
				HitRatio:   hr,
				LoadStdDev: m.sched.Stats().LoadStdDev(),
			})
		}
	}
	return out, nil
}

// Fig8Row is one bar of Figure 8: one application's execution time within
// the concurrent batch, for one scheduler and cache size.
type Fig8Row struct {
	App      string
	Policy   string
	CacheGB  int
	ExecSec  float64
	HitRatio float64
}

// Fig8 reproduces Figure 8: a batch of 7 concurrent jobs (2 grep, 2 word
// count, 1 page rank, 1 sort, 1 k-means) over 15 GB inputs, with word
// count and grep sharing one input dataset, swept over 1/4/8 GB caches
// for LAF and Delay.
func Fig8(cacheGBs []int) ([]Fig8Row, error) {
	if len(cacheGBs) == 0 {
		cacheGBs = []int{1, 4, 8}
	}
	type jobSpec struct {
		name  string
		app   AppProfile
		seed  int64
		iters int
	}
	// word count and grep jobs share input block keys (same seed).
	batch := []jobSpec{
		{"grep-1", ProfileGrep, 100, 1},
		{"grep-2", ProfileGrep, 100, 1},
		{"wordcount-1", ProfileWordCount, 100, 1},
		{"wordcount-2", ProfileWordCount, 100, 1},
		{"pagerank", ProfilePageRank, 101, 2},
		{"sort", ProfileSort, 102, 1},
		{"kmeans", ProfileKMeans, 103, 2},
	}
	var out []Fig8Row
	for _, polName := range []string{"laf", "delay"} {
		pol := LAF(0.001)
		if polName == "delay" {
			pol = Delay()
		}
		for _, cgb := range cacheGBs {
			p := DefaultParams()
			p.CachePerNode = int64(cgb) * gb
			m, err := NewModel(p, Eclipse, pol)
			if err != nil {
				return nil, err
			}
			results := make(map[string]JobStats, len(batch))
			for _, js := range batch {
				if err := m.Submit(JobDesc{
					Name:       js.name,
					App:        js.app,
					InputBytes: 15 * gb,
					Iterations: js.iters,
					Seed:       js.seed,
				}, 0, func(s JobStats) { results[s.Name] = s }); err != nil {
					return nil, err
				}
			}
			m.Run()
			for _, js := range batch {
				s := results[js.name]
				out = append(out, Fig8Row{
					App: js.name, Policy: polName, CacheGB: cgb,
					ExecSec: s.Elapsed(), HitRatio: s.HitRatio(),
				})
			}
		}
	}
	return out, nil
}

// Fig9Row is one application group of Figure 9: absolute execution time
// per framework plus the normalization base.
type Fig9Row struct {
	App        string
	EclipseSec float64
	SparkSec   float64
	HadoopSec  float64
	// SkipHadoop marks apps where the paper omits Hadoop (an order of
	// magnitude slower on iterative jobs).
	SkipHadoop bool
}

// fig9Jobs lists the Figure 9 workloads: 250 GB datasets (15 GB for page
// rank), k-means ×5, page rank ×2, logistic regression ×10 iterations.
func fig9Jobs() []struct {
	app        AppProfile
	bytes      int64
	iters      int
	skipHadoop bool
} {
	return []struct {
		app        AppProfile
		bytes      int64
		iters      int
		skipHadoop bool
	}{
		{ProfileInvertedIndex, 250 * gb, 1, false},
		{ProfileWordCount, 250 * gb, 1, false},
		{ProfileSort, 250 * gb, 1, false},
		{ProfileKMeans, 250 * gb, 5, true},
		{ProfileLogReg, 250 * gb, 10, true},
		{ProfilePageRank, 15 * gb, 2, false},
	}
}

// Fig9 reproduces Figure 9: EclipseMR (LAF) vs Spark vs Hadoop across the
// six applications.
func Fig9() ([]Fig9Row, error) {
	var out []Fig9Row
	for _, jd := range fig9Jobs() {
		row := Fig9Row{App: jd.app.Name, SkipHadoop: jd.skipHadoop}
		for _, kind := range []Framework{Eclipse, Spark, Hadoop} {
			if kind == Hadoop && jd.skipHadoop {
				continue
			}
			m, err := NewModel(DefaultParams(), kind, LAF(0.001))
			if err != nil {
				return nil, err
			}
			var stats JobStats
			if err := m.Submit(JobDesc{
				Name: jd.app.Name, App: jd.app, InputBytes: jd.bytes,
				Iterations: jd.iters, Seed: 3,
			}, 0, func(s JobStats) { stats = s }); err != nil {
				return nil, err
			}
			m.Run()
			switch kind {
			case Eclipse:
				row.EclipseSec = stats.Elapsed()
			case Spark:
				row.SparkSec = stats.Elapsed()
			case Hadoop:
				row.HadoopSec = stats.Elapsed()
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig10Row is one iteration point of Figure 10 for one application.
type Fig10Row struct {
	App        string
	Iteration  int
	EclipseSec float64
	SparkSec   float64
}

// Fig10 reproduces Figures 10(a)–(c): per-iteration execution times of
// k-means, logistic regression and page rank over ten iterations,
// EclipseMR (LAF) vs Spark.
func Fig10() (map[string][]Fig10Row, error) {
	jobs := []struct {
		app   AppProfile
		bytes int64
	}{
		{ProfileKMeans, 250 * gb},
		{ProfileLogReg, 250 * gb},
		{ProfilePageRank, 15 * gb},
	}
	out := make(map[string][]Fig10Row)
	for _, jd := range jobs {
		rows := make([]Fig10Row, 10)
		for i := range rows {
			rows[i] = Fig10Row{App: jd.app.Name, Iteration: i + 1}
		}
		for _, kind := range []Framework{Eclipse, Spark} {
			m, err := NewModel(DefaultParams(), kind, LAF(0.001))
			if err != nil {
				return nil, err
			}
			var stats JobStats
			if err := m.Submit(JobDesc{
				Name: jd.app.Name, App: jd.app, InputBytes: jd.bytes,
				Iterations: 10, Seed: 4,
			}, 0, func(s JobStats) { stats = s }); err != nil {
				return nil, err
			}
			m.Run()
			times := stats.IterationTimes()
			for i := range rows {
				if kind == Eclipse {
					rows[i].EclipseSec = times[i]
				} else {
					rows[i].SparkSec = times[i]
				}
			}
		}
		out[jd.app.Name] = rows
	}
	return out, nil
}
