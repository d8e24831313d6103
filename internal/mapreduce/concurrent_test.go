package mapreduce

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
)

// TestConcurrentJobsShareScheduler runs a batch of jobs through one
// driver at the same time — the real-engine analogue of the paper's
// Figure 8 — and verifies every job's output is correct and jobs never
// observe each other's tasks.
func TestConcurrentJobsShareScheduler(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 5, slots: 2})
	inputs := map[string]map[string]int{
		"in-a.txt": {"alpha": 40, "omega": 13},
		"in-b.txt": {"beta": 25, "omega": 7},
		"in-c.txt": {"gamma": 61},
	}
	for name, words := range inputs {
		ec.upload(t, name, corpus(words), 256)
	}
	type jobCase struct {
		id    string
		input string
	}
	var jobs []jobCase
	for i := 0; i < 9; i++ {
		input := []string{"in-a.txt", "in-b.txt", "in-c.txt"}[i%3]
		jobs = append(jobs, jobCase{id: fmt.Sprintf("conc-%d", i), input: input})
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for _, jc := range jobs {
		wg.Add(1)
		go func(jc jobCase) {
			defer wg.Done()
			res, err := ec.driver.Run(JobSpec{
				ID: jc.id, App: "test-wordcount", Inputs: []string{jc.input}, User: "tester",
			})
			if err != nil {
				errs <- fmt.Errorf("%s: %w", jc.id, err)
				return
			}
			kvs, err := ec.driver.Collect(context.Background(), res, "tester")
			if err != nil {
				errs <- fmt.Errorf("%s collect: %w", jc.id, err)
				return
			}
			want := inputs[jc.input]
			got := map[string]int{}
			for _, kv := range kvs {
				n, _ := strconv.Atoi(string(kv.Value))
				got[kv.Key] = n
			}
			if len(got) != len(want) {
				errs <- fmt.Errorf("%s: %d words, want %d", jc.id, len(got), len(want))
				return
			}
			for w, n := range want {
				if got[w] != n {
					errs <- fmt.Errorf("%s: count[%q]=%d want %d", jc.id, w, got[w], n)
					return
				}
			}
		}(jc)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDuplicateConcurrentJobIDRejected verifies two in-flight jobs cannot
// share an ID (the dispatcher routes assignments by job ID).
func TestDuplicateConcurrentJobIDRejected(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{})
	ec.upload(t, "dup.txt", corpus(map[string]int{"w": 2000}), 64)
	spec := JobSpec{ID: "dup-job", App: "test-wordcount", Inputs: []string{"dup.txt"}, User: "tester"}
	var wg sync.WaitGroup
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := ec.driver.Run(spec)
			results <- err
		}()
	}
	wg.Wait()
	close(results)
	var failures int
	for err := range results {
		if err != nil {
			if !strings.Contains(err.Error(), "already running") {
				t.Fatalf("unexpected error: %v", err)
			}
			failures++
		}
	}
	// Either both ran sequentially (one finished before the other
	// started) or exactly one was rejected — never both failing.
	if failures > 1 {
		t.Fatalf("both duplicate submissions failed")
	}
}

// TestDriverCloseFailsInFlightJobs verifies Close unblocks a waiting map
// phase with an error rather than hanging.
func TestDriverCloseFailsInFlightJobs(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 2, slots: 1})
	ec.upload(t, "slow.txt", corpus(map[string]int{"x": 500}), 64)
	done := make(chan error, 1)
	go func() {
		_, err := ec.driver.Run(JobSpec{
			ID: "to-close", App: "test-wordcount", Inputs: []string{"slow.txt"}, User: "tester",
		})
		done <- err
	}()
	// Let the job get going, then close the driver. Depending on timing
	// the job may have already finished, which is also fine.
	ec.driver.Close()
	if err := <-done; err != nil && !strings.Contains(err.Error(), "driver closed") {
		t.Fatalf("err = %v", err)
	}
	// New submissions are refused.
	if _, err := ec.driver.Run(JobSpec{
		ID: "after-close", App: "test-wordcount", Inputs: []string{"slow.txt"}, User: "tester",
	}); err == nil {
		t.Fatal("Run succeeded after Close")
	}
}

// TestAsyncSpillOrderedSeqPerPartition pins the sequencing contract of
// the async spill sender: seq is assigned per partition in emit order at
// buffer hand-off, and the single sender goroutine preserves that order
// on the wire, so every partition's stored stream reads 0..n-1 with the
// request's attempt on every segment. Both emit paths hand off through
// the same sender: the emit-side combiner and the plain append path.
func TestAsyncSpillOrderedSeqPerPartition(t *testing.T) {
	for _, app := range []string{"test-wordcount", "test-wordcount-nocombine"} {
		t.Run(app, func(t *testing.T) { testAsyncSpillOrderedSeq(t, app) })
	}
}

func testAsyncSpillOrderedSeq(t *testing.T, app string) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	text, _ := wideCorpus(200, 3)
	ec.upload(t, "seq.txt", text, 1<<20)
	meta, err := ec.fs[ec.ids[0]].Lookup(context.Background(), "seq.txt", "tester")
	if err != nil {
		t.Fatal(err)
	}
	table, err := hashing.AlignedRangeTable(ec.ring)
	if err != nil {
		t.Fatal(err)
	}
	req := RunMapReq{
		Job: "seq-1", Namespace: "job:seq-1", App: app,
		BlockKey: meta.BlockKeys[0], Task: "t0", Attempt: 2,
		ReduceServers: table.Servers(), ReduceBounds: table.Bounds(),
		SpillThreshold: 64,
	}
	if _, err := ec.workers[ec.ids[0]].runMap(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	spills := 0
	for part, owner := range table.Servers() {
		segs := ec.fs[owner].Store().ReadTaggedSegments("job:seq-1", partitionName(part))
		for i, seg := range segs {
			if seg.Task != "t0" || seg.Attempt != 2 {
				t.Fatalf("partition %d segment %d tagged %q attempt %d, want t0/2", part, i, seg.Task, seg.Attempt)
			}
			if seg.Seq != i {
				t.Fatalf("partition %d seq out of order: segment %d carries seq %d", part, i, seg.Seq)
			}
			if _, err := DecodeKVs(seg.Data); err != nil {
				t.Fatalf("partition %d segment %d corrupt: %v", part, i, err)
			}
		}
		spills += len(segs)
	}
	if spills < 2*spillWindow {
		t.Fatalf("only %d spills landed; threshold too high to exercise the pipeline", spills)
	}
}

// TestAsyncSpillBoundedInflight blocks the destination of every spill
// behind a gate and verifies the pipeline's backpressure: the in-flight
// gauge saturates without exceeding the window (queue + one batch, plus
// the single buffer blocked mid-hand-off in emit), the map attempt stays
// blocked until the gate opens, and batching actually coalesces spills.
func TestAsyncSpillBoundedInflight(t *testing.T) {
	for _, app := range []string{"test-wordcount", "test-wordcount-nocombine"} {
		t.Run(app, func(t *testing.T) { testAsyncSpillBoundedInflight(t, app) })
	}
}

func testAsyncSpillBoundedInflight(t *testing.T, app string) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	text, _ := wideCorpus(300, 2)
	ec.upload(t, "window.txt", text, 1<<20)
	meta, err := ec.fs[ec.ids[0]].Lookup(context.Background(), "window.txt", "tester")
	if err != nil {
		t.Fatal(err)
	}
	sink := hashing.NodeID("sink")
	gate := make(chan struct{})
	if err := ec.net.Listen(sink, func(ctx context.Context, method string, body []byte) ([]byte, error) {
		if method != dhtfs.MethodAppendSegBatch {
			return nil, fmt.Errorf("unexpected method %s at sink", method)
		}
		<-gate
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	req := RunMapReq{
		Job: "win-1", Namespace: "job:win-1", App: app,
		BlockKey: meta.BlockKeys[0], Task: "t0",
		ReduceServers: []hashing.NodeID{sink}, ReduceBounds: []hashing.Key{0},
		SpillThreshold: 32,
	}
	w := ec.workers[ec.ids[0]]
	gauge := w.Metrics().Gauge("mr.shuffle.inflight")
	done := make(chan error, 1)
	go func() {
		_, err := w.runMap(context.Background(), req)
		done <- err
	}()

	// The window is full once the queue (spillWindow), the batch the
	// sender is blocked pushing (>=1), and the buffer blocked in emit's
	// hand-off (+1) are all accounted: gauge >= spillWindow+2.
	deadline := time.Now().Add(5 * time.Second)
	var max int64
	for {
		if v := gauge.Value(); v > max {
			max = v
		}
		if max >= spillWindow+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("inflight gauge stuck at %d; pipeline never saturated", max)
		}
		time.Sleep(time.Millisecond)
	}
	// Hold the gate a moment longer: the gauge must plateau within the
	// window and the map attempt must not complete.
	for i := 0; i < 50; i++ {
		if v := gauge.Value(); v > max {
			max = v
		}
		time.Sleep(time.Millisecond)
	}
	if max > 2*spillWindow+1 {
		t.Fatalf("inflight gauge reached %d, want <= %d", max, 2*spillWindow+1)
	}
	select {
	case err := <-done:
		t.Fatalf("runMap returned (%v) while every push was gated", err)
	default:
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v := gauge.Value(); v != 0 {
		t.Fatalf("inflight gauge = %d after completion, want 0", v)
	}
	snap := w.Metrics().Snapshot()
	spills, batches := snap.Get("mr.shuffle.spills"), snap.Get("mr.shuffle.batches")
	if spills < 2*spillWindow {
		t.Fatalf("only %d spills; threshold too high to exercise batching", spills)
	}
	if batches >= spills {
		t.Fatalf("batches = %d, spills = %d: the backlogged queue never coalesced", batches, spills)
	}
}

// TestAsyncSpillPushErrorFailsAttempt pins that an error from a push
// running in the background fails the whole map attempt: the error
// surfaces from runMap even though app.Map itself succeeded, and the
// pipeline drains instead of deadlocking emit.
func TestAsyncSpillPushErrorFailsAttempt(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	text, _ := wideCorpus(300, 2)
	ec.upload(t, "pusherr.txt", text, 1<<20)
	meta, err := ec.fs[ec.ids[0]].Lookup(context.Background(), "pusherr.txt", "tester")
	if err != nil {
		t.Fatal(err)
	}
	sink := hashing.NodeID("sink-err")
	if err := ec.net.Listen(sink, func(ctx context.Context, method string, body []byte) ([]byte, error) {
		return nil, fmt.Errorf("disk full")
	}); err != nil {
		t.Fatal(err)
	}
	req := RunMapReq{
		Job: "pe-1", Namespace: "job:pe-1", App: "test-wordcount",
		BlockKey: meta.BlockKeys[0], Task: "t0",
		ReduceServers: []hashing.NodeID{sink}, ReduceBounds: []hashing.Key{0},
		SpillThreshold: 32,
	}
	w := ec.workers[ec.ids[0]]
	_, err = w.runMap(context.Background(), req)
	if err == nil || !strings.Contains(err.Error(), "spill batch") {
		t.Fatalf("err = %v, want spill batch push failure", err)
	}
	if v := w.Metrics().Gauge("mr.shuffle.inflight").Value(); v != 0 {
		t.Fatalf("inflight gauge = %d after failed attempt, want 0", v)
	}
}
