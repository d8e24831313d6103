package cluster

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eclipsemr/internal/apps"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/transport"
	"eclipsemr/internal/workloads"
)

// reduceCrash, when set, runs once in the next call of
// cluster-crash-reduce's reducer, on the node executing the reduce.
var reduceCrash atomic.Pointer[func()]

func init() {
	mapreduce.Register("cluster-crash-reduce", mapreduce.App{
		Map: func(_ mapreduce.Params, input []byte, emit mapreduce.Emit) error {
			for _, w := range strings.Fields(string(input)) {
				if err := emit(w, []byte("1")); err != nil {
					return err
				}
			}
			return nil
		},
		Reduce: func(p mapreduce.Params, key string, values [][]byte, emit mapreduce.Emit) error {
			if f := reduceCrash.Swap(nil); f != nil {
				(*f)()
			}
			return sumCounts(p, key, values, emit)
		},
	})
}

// jobFiles reads every output file of res.
func jobFiles(t *testing.T, c *Cluster, res mapreduce.Result) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	for _, f := range res.OutputFiles {
		data, err := c.ReadFile(f, "u")
		if err != nil {
			t.Fatal(err)
		}
		files[f] = data
	}
	return files
}

// jobEvents lists the Task field of a job's events of one name on the
// manager.
func jobEvents(c *Cluster, job, name string) []string {
	var tasks []string
	for _, e := range c.Manager().Events().Events(job, 0) {
		if e.Name == name {
			tasks = append(tasks, e.Task)
		}
	}
	return tasks
}

// TestReduceGroupLostWhole: the node running a reduce task of several
// partitions crash-stops in the middle of it. No other candidate can read
// the partition it held, so the task is lost whole: each of its partitions
// is re-homed and re-shuffled, the same task runs again, and the job
// writes the same file, byte for byte, as a fault-free run.
func TestReduceGroupLostWhole(t *testing.T) {
	text, _ := recoveryText(60, 3)
	spec := mapreduce.JobSpec{ID: "group-crash", App: "cluster-crash-reduce", Inputs: []string{"chaos.txt"}, User: "u", MaxAttempts: 5}

	base := newTestCluster(t, 4, Options{})
	if _, err := base.UploadRecords("chaos.txt", "u", dhtfs.PermPublic, []byte(text), '\n'); err != nil {
		t.Fatal(err)
	}
	baseRes, err := base.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	dispatched := jobEvents(base, spec.ID, "reduce.dispatch")
	if len(dispatched) != 1 || !strings.Contains(dispatched[0], ",") {
		t.Fatalf("the fault-free run dispatched reduces for %v: want one task of several partitions", dispatched)
	}
	group := strings.Split(dispatched[0], ",")
	want := jobFiles(t, base, baseRes)

	chaos := transport.NewChaos(transport.NewLocal(), transport.ChaosConfig{Seed: 20261019})
	c := newTestCluster(t, 4, Options{
		Network: chaos,
		Retry:   transport.RetryPolicy{MaxAttempts: 5, BaseDelay: 200 * time.Microsecond},
	})
	if _, err := c.UploadRecords("chaos.txt", "u", dhtfs.PermPublic, []byte(text), '\n'); err != nil {
		t.Fatal(err)
	}
	var executor atomic.Value
	var once sync.Once
	c.Manager().Events().SetObserver(func(e events.Event) {
		if e.Job == spec.ID && e.Name == "reduce.dispatch" {
			once.Do(func() { executor.Store(e.Detail) })
		}
	})
	failed := make(chan error, 1)
	crash := func() {
		victim := executor.Load().(string)
		if victim == string(c.Manager().ID) {
			failed <- fmt.Errorf("the task runs on the manager, %s: the crash would take the driver", victim)
			return
		}
		chaos.Crash(hashing.NodeID(victim))
		go func() { failed <- c.FailNow(hashing.NodeID(victim)) }()
	}
	reduceCrash.Store(&crash)
	defer reduceCrash.Store(nil)

	res, err := c.Run(spec)
	select {
	case ferr := <-failed:
		if ferr != nil {
			t.Fatal(ferr)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("the reducer never crashed its node (run error: %v)", err)
	}
	if err != nil {
		t.Fatalf("the job did not survive losing its reduce task's executor: %v", err)
	}
	if res.ReduceTasks != 1 || fmt.Sprint(res.OutputFiles) != fmt.Sprint(baseRes.OutputFiles) {
		t.Fatalf("%d reduce tasks wrote %v; the fault-free run wrote %v", res.ReduceTasks, res.OutputFiles, baseRes.OutputFiles)
	}
	for f, data := range jobFiles(t, c, res) {
		if !bytes.Equal(data, want[f]) {
			t.Fatalf("%s: %d bytes differ from the fault-free run's %d", f, len(data), len(want[f]))
		}
	}
	rehomed := jobEvents(c, spec.ID, "partition.rehome")
	for _, p := range group {
		if !slices.Contains(rehomed, p) {
			t.Errorf("partition %s of the lost task %v was not re-homed (re-homed: %v)", p, group, rehomed)
		}
	}
	if n := c.MetricsSnapshot().Get("mr.driver.partition_reduces"); n != 1 {
		t.Errorf("partition_reduces = %d: the task should succeed once", n)
	}
}

// kmeansRecorder runs jobs on a cluster and keeps their results.
type kmeansRecorder struct {
	c       *Cluster
	results []mapreduce.Result
}

func (r *kmeansRecorder) Run(spec mapreduce.JobSpec) (mapreduce.Result, error) {
	res, err := r.c.Run(spec)
	r.results = append(r.results, res)
	return res, err
}

func (r *kmeansRecorder) Collect(res mapreduce.Result, user string) ([]mapreduce.KV, error) {
	return r.c.Collect(res, user)
}

// lloyd runs iters local Lloyd iterations over points in "x,y" lines.
func lloyd(t *testing.T, data []byte, centroids [][]float64, iters int) [][]float64 {
	t.Helper()
	var points [][]float64
	for _, line := range strings.Fields(string(data)) {
		var p []float64
		for _, f := range strings.Split(line, ",") {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatal(err)
			}
			p = append(p, v)
		}
		points = append(points, p)
	}
	for it := 0; it < iters; it++ {
		sums := make([][]float64, len(centroids))
		for i := range sums {
			sums[i] = make([]float64, len(centroids[i])+1)
		}
		for _, p := range points {
			best, bestD := 0, math.Inf(1)
			for i, c := range centroids {
				d := 0.0
				for j := range p {
					d += (p[j] - c[j]) * (p[j] - c[j])
				}
				if d < bestD {
					best, bestD = i, d
				}
			}
			for j, v := range p {
				sums[best][j] += v
			}
			sums[best][len(p)]++
		}
		next := make([][]float64, len(centroids))
		for i, s := range sums {
			next[i] = centroids[i]
			if n := s[len(s)-1]; n > 0 {
				next[i] = make([]float64, len(s)-1)
				for j := range next[i] {
					next[i][j] = s[j] / n
				}
			}
		}
		centroids = next
	}
	return centroids
}

// TestReduceGroupKMeansAgreesBitForBit: each k-means iteration's centroid
// keys fall in several partitions, all far under the grouping bound, so
// each iteration runs one reduce task into one key-sorted file. Two runs
// over the same points agree to the last bit, and both agree with a local
// Lloyd's iteration to within rounding.
func TestReduceGroupKMeansAgreesBitForBit(t *testing.T) {
	c := newTestCluster(t, 4, Options{Config: Config{BlockSize: 2048}})
	points, _ := workloads.Points(11, 3000, 2, 6)
	initial := [][]float64{{0, 0}, {1, 1}, {-1, -1}, {5, 5}, {-5, 5}, {5, -5}}
	const iters = 3
	r := &kmeansRecorder{c: c}
	var runs []apps.KMeansResult
	for _, name := range []string{"km-a.txt", "km-b.txt"} {
		if _, err := c.UploadRecords(name, "u", dhtfs.PermPublic, points, '\n'); err != nil {
			t.Fatal(err)
		}
		res, err := apps.RunKMeans(r, name, "u", initial, iters, false)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res)
	}
	for _, res := range r.results {
		dispatched := jobEvents(c, res.Job, "reduce.dispatch")
		if res.ReduceTasks != 1 || len(res.OutputFiles) != 1 || len(dispatched) != 1 || !strings.Contains(dispatched[0], ",") {
			t.Fatalf("%s: %d reduce tasks over %v wrote %v: want one task of several partitions", res.Job, res.ReduceTasks, dispatched, res.OutputFiles)
		}
		kvs, err := mapreduce.DecodeKVs(jobFiles(t, c, res)[res.OutputFiles[0]])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSortedFunc(kvs, func(a, b mapreduce.KV) int { return strings.Compare(a.Key, b.Key) }) {
			t.Fatalf("%s: output %s is not key-sorted", res.Job, res.OutputFiles[0])
		}
	}
	bits := func(m [][]float64) (out []uint64) {
		for _, row := range m {
			for _, v := range row {
				out = append(out, math.Float64bits(v))
			}
		}
		return out
	}
	a, b := runs[0], runs[1]
	if !slices.Equal(bits(a.Centroids), bits(b.Centroids)) || !slices.Equal(bits([][]float64{a.Shifts}), bits([][]float64{b.Shifts})) {
		t.Errorf("two runs over the same points differ:\ncentroids %v\n      and %v", a.Centroids, b.Centroids)
	}
	ref := lloyd(t, points, initial, iters)
	for i := range ref {
		for j := range ref[i] {
			if math.Abs(ref[i][j]-a.Centroids[i][j]) > 1e-9 {
				t.Fatalf("centroid %d = %v, a local Lloyd's iteration gives %v", i, a.Centroids[i], ref[i])
			}
		}
	}
}
