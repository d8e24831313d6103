package mapreduce

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"eclipsemr/internal/dhtfs"
)

// TestReduceGroupRule: partitions group in index order while the group's
// bytes stay under reduceGroupBytes, over the partition sizes of the
// benchmark workloads (seed 7) and the rule's edges.
func TestReduceGroupRule(t *testing.T) {
	const limit = reduceGroupBytes
	for _, tc := range []struct {
		name  string
		bytes []int64
		done  []int
		want  [][]int
	}{
		{"jobs_skewed", []int64{2210, 1893, 2467, 2102}, nil, [][]int{{0, 1, 2, 3}}},
		{"iter_kmeans", []int64{0, 0, 800, 2400}, nil, [][]int{{2, 3}}},
		{"wc_warm", []int64{39516, 72819, 128860, 338472}, nil, [][]int{{0}, {1}, {2}, {3}}},
		{"sort_shuffle", []int64{181840, 205112, 188360, 472976}, nil, [][]int{{0}, {1}, {2}, {3}}},
		{"scan_cold", []int64{0, 0, 0, 0}, nil, nil},
		{"no partitions", nil, nil, nil},
		{"done in the middle", []int64{2000, 2000, 2000, 2000}, []int{1}, [][]int{{0}, {2, 3}}},
		{"done first and last", []int64{2000, 2000, 2000, 2000}, []int{0, 3}, [][]int{{1, 2}}},
		{"all done", []int64{2000, 2000}, []int{0, 1}, nil},
		{"empty ones are skipped", []int64{100, 0, 0, 100, 0}, nil, [][]int{{0, 3}}},
		{"exactly the limit alone", []int64{limit}, nil, [][]int{{0}}},
		{"exactly the limit between small ones", []int64{100, limit, 100}, nil, [][]int{{0}, {1}, {2}}},
		{"two that reach the limit", []int64{limit / 2, limit / 2}, nil, [][]int{{0}, {1}}},
		{"two just under it", []int64{limit/2 - 1, limit / 2}, nil, [][]int{{0, 1}}},
		{"a large one cuts a run", []int64{1000, 20000, 1000, 1000}, nil, [][]int{{0}, {1}, {2, 3}}},
		{"a run fills up", []int64{6000, 6000, 6000, 6000, 6000}, nil, [][]int{{0, 1}, {2, 3}, {4}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(map[int]string)
			for _, p := range tc.done {
				done[p] = ""
			}
			if got := reduceGroups(tc.bytes, done); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("reduceGroups(%v, done %v) = %v, want %v", tc.bytes, tc.done, got, tc.want)
			}
		})
	}
}

// groupedJob runs a word count whose partitions are all far under
// reduceGroupBytes on a 5-node cluster, and returns its result, its
// journal and the word counts it must produce.
func groupedJob(t *testing.T, ec *engineCluster, id string) (Result, *journal, map[string]int) {
	t.Helper()
	text, want := wideCorpus(200, 8)
	ec.upload(t, id+".txt", text, 512)
	res, err := ec.driver.Run(JobSpec{ID: id, App: "test-wordcount", Inputs: []string{id + ".txt"}, User: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	j, err := ec.driver.loadJournal(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	return res, j, want
}

// nonEmpty lists the partitions that received bytes.
func nonEmpty(partBytes []int64) []int {
	var parts []int
	for p, b := range partBytes {
		if b > 0 {
			parts = append(parts, p)
		}
	}
	return parts
}

// checkSortedFiles fails unless every output file of res holds strictly
// ascending keys.
func checkSortedFiles(t *testing.T, ec *engineCluster, res Result) {
	t.Helper()
	for _, f := range res.OutputFiles {
		data, err := ec.fs[ec.ids[0]].ReadFile(context.Background(), f, "tester")
		if err != nil {
			t.Fatal(err)
		}
		kvs, err := DecodeKVs(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(kvs); i++ {
			if kvs[i-1].Key >= kvs[i].Key {
				t.Fatalf("%s: key %q follows %q", f, kvs[i].Key, kvs[i-1].Key)
			}
		}
	}
}

// reduceDispatches lists the tasks the driver dispatched reduces for, as
// the reduce.dispatch events of a job name them, in dispatch order.
func reduceDispatches(ec *engineCluster, job string) []string {
	var tasks []string
	for _, e := range ec.events.Events(job, 0) {
		if e.Name == "reduce.dispatch" {
			tasks = append(tasks, e.Task)
		}
	}
	return tasks
}

// TestReduceGroupWordCount: a word count whose partitions are all small
// runs fewer reduce tasks than it has partitions, writes one key-sorted
// file per task, named after its first partition, and counts every word
// right. The journal records each task's file at its first partition and
// "" at the others, and each task's events, spans and RPC timer cover it.
func TestReduceGroupWordCount(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 5})
	res, j, want := groupedJob(t, ec, "group-wc")
	groups := reduceGroups(j.Mk.PartBytes, nil)
	if parts := nonEmpty(j.Mk.PartBytes); res.ReduceTasks != len(groups) || len(groups) >= len(parts) {
		t.Fatalf("%d reduce tasks over %d non-empty partitions %v: want the %d groups %v", res.ReduceTasks, len(parts), j.Mk.PartBytes, len(groups), groups)
	}
	var wantFiles, wantTasks []string
	for _, g := range groups {
		wantFiles = append(wantFiles, "group-wc.out."+partitionName(g[0]))
		wantTasks = append(wantTasks, partitionNames(g))
		for i, p := range g {
			if rec, ok := j.PartsDone[p]; !ok || (i == 0) != (rec != "") {
				t.Errorf("partition %d of task %v journaled as %q (present %v)", p, g, rec, ok)
			}
		}
	}
	if fmt.Sprint(res.OutputFiles) != fmt.Sprint(wantFiles) {
		t.Fatalf("output files %v, want %v", res.OutputFiles, wantFiles)
	}
	got := reduceDispatches(ec, "group-wc")
	slices.Sort(got)
	slices.Sort(wantTasks)
	if fmt.Sprint(got) != fmt.Sprint(wantTasks) {
		t.Errorf("reduce.dispatch events name %v, want %v", got, wantTasks)
	}
	if n := ec.driver.Metrics().Snapshot().Hists["mr.driver.reduce_rpc_ns"].Count(); n != int64(len(groups)) {
		t.Errorf("mr.driver.reduce_rpc_ns timed %d calls for %d tasks", n, len(groups))
	}
	checkSortedFiles(t, ec, res)
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)
}

// TestReduceGroupResumeReusesFinishedTask: a run resumed after one reduce
// task finished keeps that task's file, skips all of its partitions and
// cuts the same tasks from the rest.
func TestReduceGroupResumeReusesFinishedTask(t *testing.T) {
	ctx := context.Background()
	ec := newEngineCluster(t, engineOpts{nodes: 5})
	first, j, want := groupedJob(t, ec, "group-resume")
	groups := reduceGroups(j.Mk.PartBytes, nil)
	if len(groups) < 2 || len(groups[0]) < 2 {
		t.Fatalf("tasks %v over %v: want a first task of several partitions and another after it", groups, j.Mk.PartBytes)
	}
	// Interrupted in its reduce phase with only the first task done.
	j.Phase = phaseReduce
	for p := range j.PartsDone {
		if !slices.Contains(groups[0], p) {
			delete(j.PartsDone, p)
		}
	}
	if _, err := ec.fs[ec.ids[0]].Upload(ctx, journalFile("group-resume"), "tester", dhtfs.PermPublic, j.AppendWire(nil), 1<<20); err != nil {
		t.Fatal(err)
	}
	res, err := ec.driver.Resume("group-resume")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.OutputFiles) != fmt.Sprint(first.OutputFiles) {
		t.Fatalf("resumed outputs %v, the first run's %v", res.OutputFiles, first.OutputFiles)
	}
	if res.ReduceTasks != len(groups)-1 {
		t.Errorf("the resumed run reduced %d tasks, want the %d left", res.ReduceTasks, len(groups)-1)
	}
	if n := ec.driver.Metrics().Snapshot().Get("mr.driver.parts_skipped_resume"); n != int64(len(groups[0])) {
		t.Errorf("parts_skipped_resume = %d, want the first task's %d partitions", n, len(groups[0]))
	}
	var rest []string
	for _, g := range groups {
		rest = append(rest, partitionNames(g))
	}
	// The first run dispatched every task once; the resumed one all but the
	// first.
	got := reduceDispatches(ec, "group-resume")
	wantTasks := append(slices.Clone(rest), rest[1:]...)
	slices.Sort(got)
	slices.Sort(wantTasks)
	if fmt.Sprint(got) != fmt.Sprint(wantTasks) {
		t.Errorf("reduce.dispatch over both runs names %v, want %v", got, wantTasks)
	}
	kvs, err := ec.driver.Collect(ctx, res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)
}

// TestReduceGroupResumesPerPartitionJournal: a journal written when every
// partition was a reduce task of its own, with the first and third
// non-empty partitions done in files of their own, resumes: those files
// are kept, and the partitions left are cut into tasks around them.
func TestReduceGroupResumesPerPartitionJournal(t *testing.T) {
	ctx := context.Background()
	ec := newEngineCluster(t, engineOpts{nodes: 5})
	_, j, want := groupedJob(t, ec, "group-old")
	parts := nonEmpty(j.Mk.PartBytes)
	if len(parts) < 5 {
		t.Fatalf("non-empty partitions %v: want 5", parts)
	}
	for _, f := range j.PartsDone {
		if f != "" {
			if err := ec.fs[ec.ids[0]].Delete(ctx, f, "tester"); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The two partitions the old driver finished, each reduced on its own
	// into a file named after it.
	j.Phase, j.PartsDone = phaseReduce, make(map[int]string)
	var files []string
	for _, p := range []int{parts[0], parts[2]} {
		req := RunReduceReq{
			Job: "group-old", Namespace: "job:group-old", App: "test-wordcount",
			Parts:      []ReducePart{{Partition: p, Holder: j.Mk.Servers[p], Bytes: j.Mk.PartBytes[p]}},
			OutputFile: "group-old.out." + partitionName(p), User: "tester",
		}
		if resp, err := ec.workers[j.Mk.Servers[p]].runReduce(ctx, req); err != nil || !resp.HasOutput {
			t.Fatalf("reduce of partition %d alone: %+v, %v", p, resp, err)
		}
		j.PartsDone[p] = req.OutputFile
		files = append(files, req.OutputFile)
	}
	if _, err := ec.fs[ec.ids[0]].Upload(ctx, journalFile("group-old"), "tester", dhtfs.PermPublic, j.AppendWire(nil), 1<<20); err != nil {
		t.Fatal(err)
	}
	before := len(reduceDispatches(ec, "group-old"))
	res, err := ec.driver.Resume("group-old")
	if err != nil {
		t.Fatal(err)
	}
	// parts[1] lies between two done partitions and is a task of its own;
	// the others are cut as the rule cuts them around the done ones.
	tasks := reduceGroups(j.Mk.PartBytes, j.PartsDone)
	if !slices.ContainsFunc(tasks, func(g []int) bool { return fmt.Sprint(g) == fmt.Sprint(parts[1:2]) }) {
		t.Fatalf("tasks %v over %v: partition %d is not a task of its own", tasks, j.Mk.PartBytes, parts[1])
	}
	var wantTasks []string
	for _, g := range tasks {
		wantTasks = append(wantTasks, partitionNames(g))
		files = append(files, "group-old.out."+partitionName(g[0]))
	}
	got := reduceDispatches(ec, "group-old")[before:]
	slices.Sort(got)
	slices.Sort(wantTasks)
	if fmt.Sprint(got) != fmt.Sprint(wantTasks) {
		t.Errorf("the resumed run dispatched %v, want %v", got, wantTasks)
	}
	slices.Sort(files)
	if fmt.Sprint(res.OutputFiles) != fmt.Sprint(files) {
		t.Fatalf("resumed outputs %v, want %v", res.OutputFiles, files)
	}
	checkSortedFiles(t, ec, res)
	kvs, err := ec.driver.Collect(ctx, res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)
}
