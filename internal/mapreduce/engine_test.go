package mapreduce

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"eclipsemr/internal/cache"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/scheduler"
	"eclipsemr/internal/transport"
)

// Test applications registered once for the whole package test binary.
func init() {
	Register("test-wordcount", App{Map: testWordCountMap, Reduce: testSumReduce, Combine: testSumCombiner})
	Register("test-wordcount-nocombine", App{Map: testWordCountMap, Reduce: testSumReduce})
	// The combiner fails on the first pair of the word the "poison"
	// parameter names.
	Register("test-failing-combine", App{
		Map:    testWordCountMap,
		Reduce: testSumReduce,
		Combine: &Combiner{
			Start: func(p Params, key string, dst, value []byte) ([]byte, error) {
				if key == p.Get("poison") {
					return dst, fmt.Errorf("poisoned key %s", key)
				}
				return testSumCombiner.Start(p, key, dst, value)
			},
			Add:   testSumCombiner.Add,
			Value: testSumCombiner.Value,
		},
	})
	Register("test-grep", App{
		Map: func(params Params, input []byte, emit Emit) error {
			pattern := params.Get("pattern")
			for _, line := range strings.Split(string(input), "\n") {
				if strings.Contains(line, pattern) {
					if err := emit(line, []byte("1")); err != nil {
						return err
					}
				}
			}
			return nil
		},
		Reduce: func(_ Params, key string, values [][]byte, emit Emit) error {
			return emit(key, []byte(strconv.Itoa(len(values))))
		},
	})
	Register("test-failing-map", App{
		Map: func(Params, []byte, Emit) error {
			return fmt.Errorf("deliberate map failure")
		},
		Reduce: func(_ Params, key string, _ [][]byte, emit Emit) error {
			return emit(key, nil)
		},
	})
}

func testWordCountMap(_ Params, input []byte, emit Emit) error {
	for _, w := range strings.Fields(string(input)) {
		if err := emit(w, []byte("1")); err != nil {
			return err
		}
	}
	return nil
}

func testSumReduce(_ Params, key string, values [][]byte, emit Emit) error {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return err
		}
		total += n
	}
	return emit(key, []byte(strconv.Itoa(total)))
}

// testSumCombiner is testSumReduce folded as the values come, with its
// errors: the accumulator is the running total in eight bytes.
var testSumCombiner = &Combiner{
	Start: func(_ Params, _ string, dst, value []byte) ([]byte, error) {
		n, err := strconv.Atoi(string(value))
		if err != nil {
			return dst, err
		}
		return binary.LittleEndian.AppendUint64(dst, uint64(n)), nil
	},
	Add: func(_ Params, _ string, acc, value []byte) error {
		n, err := strconv.Atoi(string(value))
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(acc, binary.LittleEndian.Uint64(acc)+uint64(n))
		return nil
	},
	Value: func(_ Params, _ string, dst, acc []byte) []byte {
		return strconv.AppendInt(dst, int64(binary.LittleEndian.Uint64(acc)), 10)
	},
}

// engineCluster is a full in-process EclipseMR data plane: DHT FS, caches,
// workers, a scheduling policy and a driver.
type engineCluster struct {
	mu      sync.Mutex
	ring    *hashing.ChordRing
	net     *transport.Local
	fs      map[hashing.NodeID]*dhtfs.Service
	workers map[hashing.NodeID]*Worker
	ids     []hashing.NodeID
	sched   scheduler.Scheduler
	driver  *Driver
	// events is the driver's structured log; tests observe it to act at
	// an exact lifecycle point.
	events *events.Log
}

type engineOpts struct {
	nodes     int
	slots     int
	cacheSize int64
	policy    string // "laf" (default), "delay", "fair"
	replicas  int
	disk      bool // shards persist under t.TempDir()
}

func newEngineCluster(t *testing.T, o engineOpts) *engineCluster {
	t.Helper()
	if o.nodes == 0 {
		o.nodes = 5
	}
	if o.slots == 0 {
		o.slots = 4
	}
	if o.cacheSize == 0 {
		o.cacheSize = 1 << 20
	}
	if o.replicas == 0 {
		o.replicas = 2
	}
	ec := &engineCluster{
		ring:    hashing.NewChordRing(),
		net:     transport.NewLocal(),
		fs:      make(map[hashing.NodeID]*dhtfs.Service),
		workers: make(map[hashing.NodeID]*Worker),
	}
	ringFn := func() *hashing.ChordRing {
		ec.mu.Lock()
		defer ec.mu.Unlock()
		return ec.ring
	}
	for i := 0; i < o.nodes; i++ {
		id := hashing.NodeID(fmt.Sprintf("worker-%02d", i))
		if err := ec.ring.AddNode(id); err != nil {
			t.Fatal(err)
		}
		ec.ids = append(ec.ids, id)
	}
	for _, id := range ec.ids {
		store := dhtfs.NewStore()
		if o.disk {
			var err error
			if store, err = dhtfs.NewStoreAt(filepath.Join(t.TempDir(), string(id))); err != nil {
				t.Fatal(err)
			}
		}
		fs, err := dhtfs.NewServiceWithStore(id, ec.net, ringFn, o.replicas, store)
		if err != nil {
			t.Fatal(err)
		}
		nc := cache.New(o.cacheSize/2, o.cacheSize/2)
		w := NewWorker(id, fs, nc, ec.net)
		ec.fs[id] = fs
		ec.workers[id] = w
		handler := func(fs *dhtfs.Service, w *Worker) transport.Handler {
			return func(ctx context.Context, method string, body []byte) ([]byte, error) {
				if out, ok, err := w.Handle(ctx, method, body); ok {
					return out, err
				}
				if out, ok, err := fs.Handle(ctx, method, body); ok {
					return out, err
				}
				return nil, fmt.Errorf("unknown method %s", method)
			}
		}(fs, w)
		if err := ec.net.Listen(id, handler); err != nil {
			t.Fatal(err)
		}
	}
	var sched scheduler.Scheduler
	var err error
	switch o.policy {
	case "", "laf":
		sched, err = scheduler.NewLAF(scheduler.DefaultLAFConfig(), ec.ring)
	case "delay":
		sched, err = scheduler.NewDelay(scheduler.DelayConfig{Wait: 100 * time.Millisecond}, ec.ring)
	case "fair":
		sched, err = scheduler.NewFair(ec.ring)
	default:
		t.Fatalf("unknown policy %q", o.policy)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ec.ids {
		sched.AddNode(id, o.slots)
	}
	ec.sched = sched
	driver, err := NewDriver(ec.ids[0], ec.net, ec.fs[ec.ids[0]], sched, ringFn, o.slots)
	if err != nil {
		t.Fatal(err)
	}
	ec.driver = driver
	ec.events = events.New(string(ec.ids[0]), events.Options{})
	driver.SetEvents(ec.events)
	return ec
}

// upload stores a line-oriented file via the first node, with blocks cut
// at record boundaries so map tasks never see torn words.
func (ec *engineCluster) upload(t *testing.T, name string, data []byte, blockSize int) {
	t.Helper()
	if _, err := ec.fs[ec.ids[0]].UploadRecords(context.Background(), name, "tester", dhtfs.PermPublic, data, blockSize, '\n'); err != nil {
		t.Fatal(err)
	}
}

// corpus builds a deterministic text with known word counts.
func corpus(words map[string]int) []byte {
	var b strings.Builder
	keys := make([]string, 0, len(words))
	for w := range words {
		keys = append(keys, w)
	}
	// Interleave words to spread them across blocks.
	for round := 0; ; round++ {
		emitted := false
		for _, w := range keys {
			if words[w] > round {
				b.WriteString(w)
				b.WriteByte(' ')
				if (round+len(w))%7 == 0 {
					b.WriteByte('\n')
				}
				emitted = true
			}
		}
		if !emitted {
			break
		}
	}
	return []byte(b.String())
}

func countsFromKVs(t *testing.T, kvs []KV) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for _, kv := range kvs {
		n, err := strconv.Atoi(string(kv.Value))
		if err != nil {
			t.Fatalf("bad count %q for %q", kv.Value, kv.Key)
		}
		if _, dup := out[kv.Key]; dup {
			t.Fatalf("duplicate key %q across partitions", kv.Key)
		}
		out[kv.Key] = n
	}
	return out
}

func TestWordCountEndToEnd(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{})
	want := map[string]int{"apple": 120, "banana": 75, "cherry": 31, "date": 9, "elderberry": 230}
	ec.upload(t, "corpus.txt", corpus(want), 512)

	res, err := ec.driver.Run(JobSpec{
		ID:     "wc-1",
		App:    "test-wordcount",
		Inputs: []string{"corpus.txt"},
		User:   "tester",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks == 0 || res.ReduceTasks == 0 {
		t.Fatalf("result = %+v", res)
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	got := countsFromKVs(t, kvs)
	if len(got) != len(want) {
		t.Fatalf("got %d words want %d: %v", len(got), len(want), got)
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%q] = %d want %d", w, got[w], n)
		}
	}
	if res.ShuffleBytes == 0 {
		t.Error("no shuffle bytes recorded")
	}
}

func TestWordCountAllPolicies(t *testing.T) {
	want := map[string]int{"x": 40, "yy": 17, "zzz": 55}
	for _, policy := range []string{"laf", "delay", "fair"} {
		t.Run(policy, func(t *testing.T) {
			ec := newEngineCluster(t, engineOpts{policy: policy})
			ec.upload(t, "c.txt", corpus(want), 128)
			res, err := ec.driver.Run(JobSpec{
				ID: "wc-" + policy, App: "test-wordcount",
				Inputs: []string{"c.txt"}, User: "tester",
			})
			if err != nil {
				t.Fatal(err)
			}
			kvs, err := ec.driver.Collect(context.Background(), res, "tester")
			if err != nil {
				t.Fatal(err)
			}
			got := countsFromKVs(t, kvs)
			for w, n := range want {
				if got[w] != n {
					t.Errorf("count[%q] = %d want %d", w, got[w], n)
				}
			}
		})
	}
}

func TestGrepWithParams(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{})
	text := "error: disk full\nok: fine\nerror: disk full\nwarn: hot\n"
	ec.upload(t, "log.txt", []byte(strings.Repeat(text, 20)), 64)
	res, err := ec.driver.Run(JobSpec{
		ID: "grep-1", App: "test-grep",
		Inputs: []string{"log.txt"}, User: "tester",
		Params: Params{"pattern": []byte("error")},
	})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	// Blocks split lines arbitrarily, so just verify only matching lines
	// appear and the total is plausible (>0).
	total := 0
	for _, kv := range kvs {
		if !strings.Contains(kv.Key, "error") {
			t.Fatalf("non-matching line %q in output", kv.Key)
		}
		n, _ := strconv.Atoi(string(kv.Value))
		total += n
	}
	if total == 0 {
		t.Fatal("grep found nothing")
	}
}

func TestSecondJobHitsICache(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{policy: "laf", cacheSize: 8 << 20})
	want := map[string]int{"only": 200}
	ec.upload(t, "c.txt", corpus(want), 256)
	run := func(id string) Result {
		res, err := ec.driver.Run(JobSpec{
			ID: id, App: "test-wordcount", Inputs: []string{"c.txt"}, User: "tester",
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run("wc-a")
	if first.CacheHits != 0 {
		t.Fatalf("cold run had %d cache hits", first.CacheHits)
	}
	second := run("wc-b")
	if second.CacheHits == 0 {
		t.Fatal("warm run had no iCache hits")
	}
	t.Logf("warm-run cache hits: %d/%d maps", second.CacheHits, second.MapTasks)
}

func TestReuseTagSkipsMapPhase(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{})
	want := map[string]int{"alpha": 64, "beta": 32}
	ec.upload(t, "c.txt", corpus(want), 256)
	spec := JobSpec{
		ID: "r1", App: "test-wordcount", Inputs: []string{"c.txt"},
		User: "tester", ReuseTag: "wc-shared",
	}
	res1, err := ec.driver.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res1.MapsSkipped || res1.MapTasks == 0 {
		t.Fatalf("first run: %+v", res1)
	}
	spec.ID = "r2"
	res2, err := ec.driver.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.MapsSkipped || res2.MapTasks != 0 {
		t.Fatalf("second run did not reuse: %+v", res2)
	}
	kvs, err := ec.driver.Collect(context.Background(), res2, "tester")
	if err != nil {
		t.Fatal(err)
	}
	got := countsFromKVs(t, kvs)
	for w, n := range want {
		if got[w] != n {
			t.Errorf("reused count[%q] = %d want %d", w, got[w], n)
		}
	}
}

func TestFailingMapSurfacesError(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{})
	ec.upload(t, "c.txt", []byte("data"), 64)
	_, err := ec.driver.Run(JobSpec{
		ID: "fail-1", App: "test-failing-map", Inputs: []string{"c.txt"},
		User: "tester", MaxAttempts: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "deliberate map failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestMissingInputFails(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{})
	_, err := ec.driver.Run(JobSpec{
		ID: "mi-1", App: "test-wordcount", Inputs: []string{"ghost.txt"}, User: "tester",
	})
	if err == nil || !dhtfs.IsNotFound(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestPermissionEnforcedOnInputs(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{})
	if _, err := ec.fs[ec.ids[0]].Upload(context.Background(), "private.txt", "alice", dhtfs.PermPrivate, []byte("x y z"), 64); err != nil {
		t.Fatal(err)
	}
	_, err := ec.driver.Run(JobSpec{
		ID: "p-1", App: "test-wordcount", Inputs: []string{"private.txt"}, User: "eve",
	})
	if err == nil || !dhtfs.IsPermission(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestSmallSpillThresholdManySpills(t *testing.T) {
	// A tiny spill threshold forces many proactive pushes per map task and
	// exercises spill concatenation on the reducer side.
	ec := newEngineCluster(t, engineOpts{})
	want := map[string]int{"aaa": 90, "bbb": 90, "ccc": 90}
	ec.upload(t, "c.txt", corpus(want), 256)
	res, err := ec.driver.Run(JobSpec{
		ID: "spill-1", App: "test-wordcount", Inputs: []string{"c.txt"},
		User: "tester", SpillThreshold: 32, // bytes!
	})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	got := countsFromKVs(t, kvs)
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%q] = %d want %d", w, got[w], n)
		}
	}
}

func TestMultipleInputFiles(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{})
	ec.upload(t, "a.txt", corpus(map[string]int{"shared": 10, "a-only": 5}), 128)
	ec.upload(t, "b.txt", corpus(map[string]int{"shared": 7, "b-only": 3}), 128)
	res, err := ec.driver.Run(JobSpec{
		ID: "multi-1", App: "test-wordcount",
		Inputs: []string{"a.txt", "b.txt"}, User: "tester",
	})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	got := countsFromKVs(t, kvs)
	if got["shared"] != 17 || got["a-only"] != 5 || got["b-only"] != 3 {
		t.Fatalf("counts = %v", got)
	}
}

func TestDropIntermediates(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{})
	ec.upload(t, "c.txt", corpus(map[string]int{"w": 30}), 128)
	spec := JobSpec{ID: "d1", App: "test-wordcount", Inputs: []string{"c.txt"}, User: "tester"}
	if _, err := ec.driver.Run(spec); err != nil {
		t.Fatal(err)
	}
	ec.driver.DropIntermediates(context.Background(), spec)
	for id, fs := range ec.fs {
		if _, _, segs := fs.Store().Counts(); segs != 0 {
			t.Fatal("segments remain after DropIntermediates")
		}
		if _, err := fs.Store().GetMeta(journalFile(spec.ID)); err == nil {
			t.Fatalf("%s still holds the journal after DropIntermediates", id)
		}
	}
	if got := ec.driver.Metrics().Snapshot().Get("mr.driver.journal_errors"); got != 0 {
		t.Fatalf("%d journal errors for a drop that deleted the journal", got)
	}
	// A journal no member holds any more is a journal the drop could not
	// delete.
	ec.driver.DropIntermediates(context.Background(), spec)
	if got := ec.driver.Metrics().Snapshot().Get("mr.driver.journal_errors"); got != 1 {
		t.Fatalf("%d journal errors for a drop that found no journal, want 1", got)
	}
}
