package simcluster

import (
	"math"
	"testing"

	"eclipsemr/internal/workloads"
)

func runOne(t *testing.T, kind Framework, pol Policy, job JobDesc) JobStats {
	t.Helper()
	m, err := NewModel(DefaultParams(), kind, pol)
	if err != nil {
		t.Fatal(err)
	}
	var stats JobStats
	if err := m.Submit(job, 0, func(s JobStats) { stats = s }); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if stats.Finish == 0 {
		t.Fatal("job never completed")
	}
	return stats
}

func TestModelDeterministic(t *testing.T) {
	job := JobDesc{Name: "det", App: ProfileWordCount, InputBytes: 10 * gb, Seed: 1}
	a := runOne(t, Eclipse, LAF(0.001), job)
	b := runOne(t, Eclipse, LAF(0.001), job)
	if a.Finish != b.Finish || a.CacheHits != b.CacheHits || a.BytesRead != b.BytesRead {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestModelValidation(t *testing.T) {
	if _, err := NewModel(DefaultParams(), Framework("bogus"), LAF(1)); err == nil {
		t.Fatal("bogus framework accepted")
	}
	m, err := NewModel(DefaultParams(), Eclipse, LAF(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(JobDesc{Name: "empty"}, 0, nil); err == nil {
		t.Fatal("empty job accepted")
	}
	if err := m.Submit(JobDesc{Name: "neg", InputBytes: gb, Iterations: -1}, 0, nil); err == nil {
		t.Fatal("negative iterations accepted")
	}
	if err := m.Submit(JobDesc{Name: "dup", InputBytes: gb}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(JobDesc{Name: "dup", InputBytes: gb}, 0, nil); err == nil {
		t.Fatal("duplicate job name accepted")
	}
}

func TestModelIterationAccounting(t *testing.T) {
	stats := runOne(t, Eclipse, LAF(0.001), JobDesc{
		Name: "iters", App: ProfileKMeans, InputBytes: 20 * gb, Iterations: 4, Seed: 2,
	})
	if len(stats.IterationFinish) != 4 {
		t.Fatalf("iteration finishes = %d", len(stats.IterationFinish))
	}
	times := stats.IterationTimes()
	var sum float64
	for i, d := range times {
		if d <= 0 {
			t.Fatalf("iteration %d duration %g", i, d)
		}
		sum += d
	}
	// Iteration durations partition the interval from job start to finish
	// (the job-overhead prefix belongs to iteration 1's duration).
	if math.Abs(sum-(stats.Finish-stats.Start)) > 1e-6 {
		t.Fatalf("iteration times sum %g != makespan %g", sum, stats.Finish-stats.Start)
	}
	if stats.IterationFinish[3] != stats.Finish {
		t.Fatalf("last iteration finish %g != job finish %g", stats.IterationFinish[3], stats.Finish)
	}
	if stats.MapTasks != 4*int(20*gb/DefaultParams().BlockSize) {
		t.Fatalf("map tasks = %d", stats.MapTasks)
	}
}

func TestModelCacheWarmsAcrossIterations(t *testing.T) {
	p := DefaultParams()
	p.CachePerNode = 64 << 30 // cache far larger than the input: all re-reads hit
	m, err := NewModel(p, Eclipse, LAF(0.001))
	if err != nil {
		t.Fatal(err)
	}
	var stats JobStats
	if err := m.Submit(JobDesc{
		Name: "warm", App: ProfileKMeans, InputBytes: 10 * gb, Iterations: 3, Seed: 3,
	}, 0, func(s JobStats) { stats = s }); err != nil {
		t.Fatal(err)
	}
	m.Run()
	blocks := int64(10 * gb / p.BlockSize)
	if stats.CacheMiss != blocks {
		t.Fatalf("misses = %d want %d (first iteration only)", stats.CacheMiss, blocks)
	}
	if stats.CacheHits != 2*blocks {
		t.Fatalf("hits = %d want %d", stats.CacheHits, 2*blocks)
	}
	if stats.BytesRead != 10*gb {
		t.Fatalf("bytes read = %d want one pass", stats.BytesRead)
	}
}

func TestModelHadoopSlowerThanEclipse(t *testing.T) {
	job := JobDesc{Name: "cmp", App: ProfileWordCount, InputBytes: 50 * gb, Seed: 4}
	e := runOne(t, Eclipse, LAF(0.001), job)
	h := runOne(t, Hadoop, LAF(0.001), job)
	if h.Elapsed() <= e.Elapsed() {
		t.Fatalf("Hadoop %.0fs not slower than Eclipse %.0fs", h.Elapsed(), e.Elapsed())
	}
}

func TestModelExplicitBlockKeys(t *testing.T) {
	keys := workloads.TwoNormalKeys(7, 100, 0.3, 0.6, 0.02, 0.5)
	stats := runOne(t, Eclipse, Delay(), JobDesc{
		Name: "keys", App: ProfileGrep, InputBytes: int64(len(keys)) * (14 << 20), BlockKeys: keys,
	})
	if stats.MapTasks != len(keys) {
		t.Fatalf("map tasks = %d want %d", stats.MapTasks, len(keys))
	}
}

func TestModelConcurrentJobsInterleave(t *testing.T) {
	m, err := NewModel(DefaultParams(), Eclipse, LAF(0.001))
	if err != nil {
		t.Fatal(err)
	}
	var a, b JobStats
	if err := m.Submit(JobDesc{Name: "j1", App: ProfileGrep, InputBytes: 30 * gb, Seed: 1},
		0, func(s JobStats) { a = s }); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(JobDesc{Name: "j2", App: ProfileGrep, InputBytes: 30 * gb, Seed: 2},
		0, func(s JobStats) { b = s }); err != nil {
		t.Fatal(err)
	}
	m.Run()
	solo := runOne(t, Eclipse, LAF(0.001), JobDesc{Name: "solo", App: ProfileGrep, InputBytes: 30 * gb, Seed: 1})
	// Two competing jobs each take longer than one alone, but less than
	// 3× (they share disks and slots, not serialize fully).
	if a.Elapsed() <= solo.Elapsed() || b.Elapsed() <= solo.Elapsed() {
		t.Fatalf("contention had no cost: solo %.0f, a %.0f, b %.0f",
			solo.Elapsed(), a.Elapsed(), b.Elapsed())
	}
	if a.Elapsed() > 3*solo.Elapsed() {
		t.Fatalf("contention overpriced: solo %.0f vs %.0f", solo.Elapsed(), a.Elapsed())
	}
}

func TestJobStatsHelpers(t *testing.T) {
	s := JobStats{Start: 10, Finish: 30, CacheHits: 3, CacheMiss: 1,
		IterationFinish: []float64{15, 30}}
	if s.Elapsed() != 20 {
		t.Fatalf("Elapsed = %g", s.Elapsed())
	}
	if s.HitRatio() != 0.75 {
		t.Fatalf("HitRatio = %g", s.HitRatio())
	}
	times := s.IterationTimes()
	if times[0] != 5 || times[1] != 15 {
		t.Fatalf("IterationTimes = %v", times)
	}
	var empty JobStats
	if empty.HitRatio() != 0 {
		t.Fatal("empty HitRatio != 0")
	}
}

func TestParamsWithDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	d := DefaultParams()
	if p != d {
		t.Fatalf("zero params did not default: %+v", p)
	}
	p = Params{Nodes: 10}.withDefaults()
	if p.Nodes != 10 || p.DiskBandwidth != d.DiskBandwidth {
		t.Fatalf("partial params = %+v", p)
	}
}

func TestProactiveShuffleToggle(t *testing.T) {
	run := func(proactive bool) float64 {
		m, err := NewModel(DefaultParams(), Eclipse, LAF(0.001))
		if err != nil {
			t.Fatal(err)
		}
		m.SetProactiveShuffle(proactive)
		var stats JobStats
		if err := m.Submit(JobDesc{Name: "s", App: ProfileSort, InputBytes: 50 * gb, Seed: 5},
			0, func(s JobStats) { stats = s }); err != nil {
			t.Fatal(err)
		}
		m.Run()
		return stats.Elapsed()
	}
	on, off := run(true), run(false)
	if on >= off {
		t.Fatalf("proactive shuffle (%.0fs) not faster than pull (%.0fs)", on, off)
	}
}
