package apps

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"eclipsemr/internal/cluster"
	"eclipsemr/internal/events"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/transport"
	"eclipsemr/internal/workloads"
)

// driver runs one iterative application for iters iterations through r
// and flattens the state it reaches into keys (nil when the state is a
// plain vector) and values.
type driver func(r Runner, iters int) (keys []string, state []float64, res []mapreduce.Result, err error)

// cancelled is the cluster with each job run under ctx.
type cancelled struct {
	*cluster.Cluster
	ctx context.Context
}

func (c cancelled) Run(spec mapreduce.JobSpec) (mapreduce.Result, error) {
	return c.RunContext(c.ctx, spec)
}

// resumeCluster is a cluster of three nodes with one map slot each and a
// network that delays every call: a job's maps run in waves that take a
// while, so a kill at a map's finish leaves the others undone.
func resumeCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(3, cluster.Options{
		Config:  cluster.Config{BlockSize: 2048, MapSlots: 1},
		Network: transport.NewChaos(transport.NewLocal(), transport.ChaosConfig{Latency: 500 * time.Microsecond}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// checkResume kills a named run of drive between iterations and in the
// middle of one, restarts it, and holds the state it reaches to a straight
// run's, bit for bit (DESIGN.md §7).
func checkResume(t *testing.T, c *cluster.Cluster, drive driver) {
	const iters = 4
	keys, want, straight, err := drive(c, iters)
	if err != nil {
		t.Fatal(err)
	}
	same := func(leg string, wantKeys []string, want []float64, gotKeys []string, got []float64) {
		t.Helper()
		if !slices.Equal(gotKeys, wantKeys) || len(got) != len(want) {
			t.Fatalf("%s: the state has keys %v and %d values, want %v and %d", leg, gotKeys, len(got), wantKeys, len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: state[%d] = %v, a straight run reaches %v", leg, i, got[i], want[i])
			}
		}
	}
	// replayed checks that the first n iterations came back from their
	// journals and ran nothing, and that the rest ran fresh.
	replayed := func(leg string, res []mapreduce.Result, n int) {
		t.Helper()
		for it, r := range res {
			if done := it < n; r.Resumed != done || r.MapsSkipped != done {
				t.Fatalf("%s: iteration %d has Resumed=%v MapsSkipped=%v, want both %v", leg, it, r.Resumed, r.MapsSkipped, done)
			}
		}
	}

	t.Run("between-iterations", func(t *testing.T) {
		if _, _, res, err := drive(Named(c, "between"), 2); err != nil {
			t.Fatal(err)
		} else {
			replayed("first leg", res, 0)
		}
		gotKeys, got, res, err := drive(Named(c, "between"), iters)
		if err != nil {
			t.Fatal(err)
		}
		replayed("restart", res, 2)
		same("restart", keys, want, gotKeys, got)
		// A call for fewer iterations than are journaled returns the state
		// after exactly that many.
		oneKeys, one, _, err := drive(c, 1)
		if err != nil {
			t.Fatal(err)
		}
		gotKeys, got, res, err = drive(Named(c, "between"), 1)
		if err != nil {
			t.Fatal(err)
		}
		replayed("shallow call", res, 1)
		same("shallow call", oneKeys, one, gotKeys, got)
	})

	t.Run("mid-iteration", func(t *testing.T) {
		// The run is killed at the first map that finishes in its second
		// iteration: the first is done, the second journaled part-way.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var once sync.Once
		log := c.Manager().Events()
		log.SetObserver(func(e events.Event) {
			if e.Name == "map.finish" && strings.HasPrefix(e.Job, "mid-") && strings.HasSuffix(e.Job, "-it1") {
				once.Do(cancel)
			}
		})
		defer log.SetObserver(nil)
		if _, _, _, err := drive(Named(cancelled{c, ctx}, "mid"), iters); err == nil {
			t.Fatal("the run finished before it was killed")
		}
		log.SetObserver(nil)
		gotKeys, got, res, err := drive(Named(c, "mid"), iters)
		if err != nil {
			t.Fatal(err)
		}
		replayed("restart", res[:1], 1)
		if r := res[1]; !r.Resumed || r.MapsSkipped || r.MapTasks >= straight[1].MapTasks {
			t.Fatalf("the interrupted iteration has Resumed=%v MapsSkipped=%v and ran %d maps, a fresh one %d",
				r.Resumed, r.MapsSkipped, r.MapTasks, straight[1].MapTasks)
		}
		replayed("restart", res[2:], 0)
		same("restart", keys, want, gotKeys, got)
	})
}

func kmeansDriver(input string, initial [][]float64) driver {
	return func(r Runner, iters int) ([]string, []float64, []mapreduce.Result, error) {
		res, err := RunKMeans(r, input, "u", initial, iters, false)
		return nil, slices.Concat(res.Centroids...), res.Results, err
	}
}

func TestKMeansResumeMatchesStraightRun(t *testing.T) {
	c := resumeCluster(t)
	data, _ := workloads.Points(21, 1200, 2, 3)
	uploadLines(t, c, "ck.csv", data)
	if _, err := RunKMeans(Named(c, "empty"), "ck.csv", "u", nil, 3, false); err == nil {
		t.Fatal("empty centroids accepted")
	}
	checkResume(t, c, kmeansDriver("ck.csv", [][]float64{{0, 0}, {3, 3}, {-3, -3}}))
}

func TestLogRegResumeMatchesStraightRun(t *testing.T) {
	c := resumeCluster(t)
	data, _ := workloads.LabeledPoints(22, 900, 3)
	uploadLines(t, c, "cklr.csv", data)
	checkResume(t, c, func(r Runner, iters int) ([]string, []float64, []mapreduce.Result, error) {
		res, err := RunLogReg(r, "cklr.csv", "u", 3, iters, 0.5)
		return nil, res.Weights, res.Results, err
	})
}

func TestPageRankResumeMatchesStraightRun(t *testing.T) {
	c := resumeCluster(t)
	const n = 400
	uploadLines(t, c, "ckpr.txt", workloads.Graph(24, n, 3))
	checkResume(t, c, func(r Runner, iters int) ([]string, []float64, []mapreduce.Result, error) {
		res, err := RunPageRank(r, "ckpr.txt", "u", n, iters)
		nodes := make([]string, 0, len(res.Ranks))
		for node := range res.Ranks {
			nodes = append(nodes, node)
		}
		slices.Sort(nodes)
		ranks := make([]float64, len(nodes))
		for i, node := range nodes {
			ranks[i] = res.Ranks[node]
		}
		return nodes, ranks, res.Results, err
	})
}

// TestConcurrentNamedRunsKeepApart: two named runs over one input, from
// different initial centroids, submit jobs of their own, and each reaches
// the state its solo run does, bit for bit.
func TestConcurrentNamedRunsKeepApart(t *testing.T) {
	c := newCluster(t, 3)
	data, _ := workloads.Points(25, 600, 2, 3)
	uploadLines(t, c, "cr.csv", data)
	const iters = 2
	runs := []driver{
		kmeansDriver("cr.csv", [][]float64{{0, 0}, {3, 3}, {-3, -3}}),
		kmeansDriver("cr.csv", [][]float64{{1, -1}, {-2, 2}, {4, 0}}),
	}
	solo := make([][]float64, len(runs))
	for i, drive := range runs {
		var err error
		if _, solo[i], _, err = drive(c, iters); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 20; round++ {
		got := make([][]float64, len(runs))
		errs := make([]error, len(runs))
		var wg sync.WaitGroup
		for i, drive := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, got[i], _, errs[i] = drive(Named(c, fmt.Sprintf("r%d-%d", round, i)), iters)
			}()
		}
		wg.Wait()
		for i := range runs {
			if errs[i] != nil {
				t.Fatalf("round %d, run %d: %v", round, i, errs[i])
			}
			if !slices.EqualFunc(got[i], solo[i], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("round %d, run %d: centroids %v, its solo run reaches %v", round, i, got[i], solo[i])
			}
		}
	}
}
