package mapreduce

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/cache"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/trace"
	"eclipsemr/internal/transport"
)

// Wire messages for the mr.* worker methods.
type (
	// RunMapReq asks a worker to execute one map task.
	RunMapReq struct {
		Job       string
		Namespace string
		App       string
		Params    Params
		// BlockKey identifies the input block in the DHT file system.
		BlockKey hashing.Key
		// BlockSum is the block's digest from the input file's metadata. It
		// names the version every copy read is checked against and, with
		// BlockKey, what iCache holds of the block, so entries a deleted
		// file left behind under the same key are never served. Required.
		BlockSum hashing.Digest
		// Task names the map task and Attempt counts its executions
		// (0-based), so spills from retried or re-dispatched attempts
		// supersede rather than duplicate earlier ones. Required.
		Task    string
		Attempt int
		// ReduceServers / ReduceBounds describe the reduce partition
		// table fixed at job start (partition i is owned by
		// ReduceServers[i]).
		ReduceServers []hashing.NodeID
		ReduceBounds  []hashing.Key
		// OnlyPartitions, when non-empty, restricts output to the listed
		// reduce partitions: pairs hashing elsewhere are discarded instead
		// of buffered and shuffled. Partition recovery uses this to rebuild
		// only the lost partitions.
		OnlyPartitions []int
		SpillThreshold int
	}
	// RunMapResp reports the intermediate bytes pushed per partition —
	// the mapper's "notify the scheduler with their hash keys" step.
	RunMapResp struct {
		PartBytes []int64
		// Lost lists, in ascending order, the partitions whose owner a
		// spill push found unreachable: their spills from this map did
		// not all land, though PartBytes counts them. The driver re-homes
		// and re-shuffles these partitions before reducing them.
		Lost []int
		// CacheHit reports the input was served from iCache: the block's
		// bytes or, for a decoding application, its decoded split.
		CacheHit bool
		// RemoteRead reports the block came from another node's shard.
		RemoteRead bool
	}
	// RunReduceReq asks a worker to execute one reduce task.
	RunReduceReq struct {
		Job       string
		Namespace string
		App       string
		Params    Params
		// Parts are the task's partitions in partition order, each with the
		// node holding its spills, the one place they live. The worker
		// reduces them together into OutputFile.
		Parts      []ReducePart
		OutputFile string
		User       string
	}
	// ReducePart is one partition of a reduce task, its spills' holder
	// and their bytes, from the job's partition table: a holder whose
	// merged spills sum to another count no longer holds them whole.
	ReducePart struct {
		Partition int
		Holder    hashing.NodeID
		Bytes     int64
	}
	// RunReduceResp summarizes a reduce task.
	RunReduceResp struct {
		Keys        int64
		OutputBytes int64
		// HasOutput reports whether an output file was written (empty
		// partitions produce none).
		HasOutput bool
		// Unreached lists, in partition order, the partitions whose holder
		// the worker could not read, or read short of their bytes; when it
		// is non-empty nothing was reduced or written, and the driver tries
		// another executor.
		Unreached []int
	}
)

// Worker method names.
const (
	MethodRunMap    = "mr.runMap"
	MethodRunReduce = "mr.runReduce"
)

// Worker executes map and reduce tasks on one node. It reads input blocks
// through the node's iCache, proactively shuffles intermediate results to
// reducer-side nodes, and serves reduce tasks from the partition owner's
// stored segments.
type Worker struct {
	self   hashing.NodeID
	fs     *dhtfs.Service
	cache  *cache.NodeCache
	net    transport.Network
	reg    *metrics.Registry
	tracer *trace.Tracer
	events *events.Log
	// idleCombine is the one combine state no map task holds, nil while a
	// task has it (see borrowCombineState).
	idleCombine atomic.Pointer[combineState]
	// idleReduce is the one reduce state no reduce task holds, nil while
	// a task has it (see borrowReduceState).
	idleReduce atomic.Pointer[streamOrder]
}

// NewWorker builds a Worker bound to the node's file system service and
// cache.
func NewWorker(self hashing.NodeID, fs *dhtfs.Service, nc *cache.NodeCache, net transport.Network) *Worker {
	return &Worker{self: self, fs: fs, cache: nc, net: net, reg: metrics.NewRegistry()}
}

// Cache exposes the node cache for stats collection.
func (w *Worker) Cache() *cache.NodeCache { return w.cache }

// Metrics exposes the worker's operational counters.
func (w *Worker) Metrics() *metrics.Registry { return w.reg }

// SetTracer wires the node's tracer into the worker. Call before serving
// tasks; a nil tracer (the default) disables worker spans.
func (w *Worker) SetTracer(tr *trace.Tracer) { w.tracer = tr }

// SetEvents wires the node's structured event log into the worker so
// shuffle batches land in the flight recorder (nil disables emission).
func (w *Worker) SetEvents(l *events.Log) { w.events = l }

// Handle serves one inbound mr.* call; the bool reports method ownership.
// The context carries the caller's span context, so task spans started
// here become children of the driver's dispatch span.
func (w *Worker) Handle(ctx context.Context, method string, body []byte) ([]byte, bool, error) {
	switch method {
	case MethodRunMap:
		var req RunMapReq
		if err := transport.Decode(body, &req); err != nil {
			return nil, true, err
		}
		resp, err := w.runMap(ctx, req)
		if err != nil {
			return nil, true, err
		}
		out, err := transport.Encode(resp)
		return out, true, err
	case MethodRunReduce:
		var req RunReduceReq
		if err := transport.Decode(body, &req); err != nil {
			return nil, true, err
		}
		resp, err := w.runReduce(ctx, req)
		if err != nil {
			return nil, true, err
		}
		out, err := transport.Encode(resp)
		return out, true, err
	}
	return w.handleMigration(ctx, method, body)
}

// fetchBlock implements the paper's map-side read path: iCache, then the
// file system, which reads this node's own shard first when it holds a
// replica and another node's otherwise. Either way the copy is of the
// version id names, and it populates iCache so the popular block is now
// cached *here*, in the range the scheduler mapped it to — independent of
// where the file system stored it. The caller releases the buffer when
// done reading; the iCache entry holds its own reference.
func (w *Worker) fetchBlock(ctx context.Context, id cache.BlockID) (buf *blockbuf.Buf, cacheHit, remote bool, err error) {
	if buf, ok := w.cache.GetBlockVersion(id); ok {
		return buf, true, false, nil
	}
	buf, remote, err = w.fs.PinBlock(ctx, id.Key, id.Sum)
	if err != nil {
		return nil, false, false, err
	}
	w.cache.PutBlockVersion(id, buf)
	return buf, false, remote, nil
}

// runMap executes one map task with proactive shuffling.
func (w *Worker) runMap(ctx context.Context, req RunMapReq) (RunMapResp, error) {
	ctx, task := w.tracer.StartSpan(ctx, "task.map")
	defer task.End()
	task.Annotate("task", req.Task)
	app, err := lookupApp(req.App)
	if err != nil {
		return RunMapResp{}, err
	}
	if req.Task == "" || req.BlockSum == (hashing.Digest{}) {
		return RunMapResp{}, fmt.Errorf("mapreduce: map request names no task or no block digest (task %q)", req.Task)
	}
	if len(req.ReduceServers) == 0 || len(req.ReduceServers) != len(req.ReduceBounds) {
		return RunMapResp{}, fmt.Errorf("mapreduce: malformed reduce table (%d servers, %d bounds)",
			len(req.ReduceServers), len(req.ReduceBounds))
	}
	table, err := hashing.NewRangeTable(req.ReduceServers, req.ReduceBounds)
	if err != nil {
		return RunMapResp{}, err
	}
	id := cache.BlockID{Key: req.BlockKey, Sum: req.BlockSum}
	// A decoding application reads its split; the block's bytes are read
	// only to build a split iCache does not hold.
	var (
		block            *blockbuf.Buf // nil when iCache holds the split
		split            any
		decoded          bool
		cacheHit, remote bool
	)
	rctx, rd := w.tracer.StartStage(ctx, "map.read", w.reg.Histogram("mr.map.read_ns"))
	if app.Decode != nil {
		split, decoded = w.cache.GetDecoded(req.App, id)
	}
	if decoded {
		cacheHit = true
	} else {
		block, cacheHit, remote, err = w.fetchBlock(rctx, id)
	}
	if cacheHit {
		rd.Annotate("cache", "hit")
	} else {
		rd.Annotate("cache", "miss")
	}
	if remote {
		rd.Annotate("remote", "true")
	}
	rd.End()
	if err != nil {
		return RunMapResp{}, fmt.Errorf("mapreduce: map input %s: %w", req.BlockKey, err)
	}
	w.reg.Counter("mr.map.tasks").Inc()
	input := block.Bytes()
	w.reg.Counter("mr.map.input_bytes").Add(int64(len(input)))
	if cacheHit {
		w.reg.Counter("mr.map.cache_hits").Inc()
	}
	if remote {
		w.reg.Counter("mr.map.remote_reads").Inc()
	}

	// Emitted pairs are buffered per partition and every spill that fills
	// up is handed to the async sender, so pushes overlap the rest of the
	// map compute. All error state lives in locally-scoped variables: the
	// sender goroutine never touches this function's err.
	sender := w.newSpillSender(ctx, req)
	var state *combineState
	if app.Combine != nil {
		state = w.borrowCombineState()
	}
	out := newMapEmitter(table, req, app.Combine, state, sender.enqueue)

	// Compute covers the user functions (decoding a split iCache missed
	// included) and everything emit does on this goroutine: partitioning,
	// buffering and, for applications with a combiner, folding each pair
	// and encoding each spill. The batch pushes run on the sender
	// goroutine and are timed as mr.shuffle.send_ns (their spans parent
	// under task.map, not map.compute); waiting for them is not compute.
	_, comp := w.tracer.StartStage(ctx, "map.compute", w.reg.Histogram("mr.map.compute_ns"))
	var mapErr error
	if app.Decode == nil {
		mapErr = app.Map(req.Params, input, out.emit)
	} else {
		if !decoded {
			// Tasks that miss the same split at once share one decode.
			var built bool
			split, built, mapErr = w.cache.Decode(req.App, id, func() (any, int64, error) {
				return app.Decode(input)
			})
			decoded = !built
		}
		if decoded {
			w.reg.Counter("mr.map.decode_hits").Inc()
			comp.Annotate("decoded", "hit")
		} else {
			w.reg.Counter("mr.map.decode_misses").Inc()
			comp.Annotate("decoded", "miss")
		}
		if mapErr != nil {
			mapErr = fmt.Errorf("decode: %w", mapErr)
		} else {
			mapErr = app.MapDecoded(req.Params, split, out.emit)
		}
	}
	if mapErr == nil {
		mapErr = out.flushAll()
	}
	comp.End()
	// The user functions have returned and may not have kept input (see
	// App): the task is done reading the block.
	block.Release()
	out.release() // whatever a failed map left unflushed
	w.returnCombineState(state)
	// The task is not done until every queued push is acknowledged;
	// errors from background pushes fail the attempt exactly like the old
	// inline path did, except an unreachable owner: its partitions are
	// reported lost.
	partBytes, lost, sendErr := sender.finish()
	if mapErr != nil {
		return RunMapResp{}, fmt.Errorf("mapreduce: map %s on block %s: %w", req.App, req.BlockKey, mapErr)
	}
	if sendErr != nil {
		return RunMapResp{}, sendErr
	}
	return RunMapResp{PartBytes: partBytes, Lost: lost, CacheHit: cacheHit, RemoteRead: remote}, nil
}

// borrowCombineState lends a map task the worker's idle combine state, or
// a new one when another task holds it. The worker keeps at most one idle
// state, not one per slot: an idle state is live heap, which the
// collector's heap goal doubles, and a second one cost more resident
// memory than it bought throughput (EXPERIMENTS.md).
func (w *Worker) borrowCombineState() *combineState {
	if s := w.idleCombine.Swap(nil); s != nil {
		return s
	}
	return new(combineState)
}

// returnCombineState resets s, whatever its task's outcome, and keeps it
// as the idle state unless the worker has one; then it is dropped. A nil
// s (the task had no combiner) is ignored.
func (w *Worker) returnCombineState(s *combineState) {
	if s == nil {
		return
	}
	s.reset()
	w.idleCombine.CompareAndSwap(nil, s)
}

// borrowReduceState lends a reduce task the worker's idle reduce state,
// or a new one when another task holds it; the worker keeps at most one
// idle, as it does combine states.
func (w *Worker) borrowReduceState() *streamOrder {
	if g := w.idleReduce.Swap(nil); g != nil {
		return g
	}
	return new(streamOrder)
}

// maxIdleReduce bounds the bytes an idle reduce state holds: a state that
// grew past it to order an outsized partition is dropped when given back.
// An idle state is live heap, which the collector's heap goal doubles: on
// sort_shuffle the four workers' states (a 640 KiB partition each) raise
// peak RSS by about a tenth (EXPERIMENTS.md).
const maxIdleReduce = 4 << 20

// returnReduceState resets g, whatever its task's outcome, and keeps it
// as the idle state unless the worker has one or g has outgrown
// maxIdleReduce; then it is dropped.
func (w *Worker) returnReduceState(g *streamOrder) {
	g.reset()
	if g.footprint() <= maxIdleReduce {
		w.idleReduce.CompareAndSwap(nil, g)
	}
}

// partitionName is the segment-store partition label for index part.
func partitionName(part int) string { return fmt.Sprintf("p%04d", part) }

// outputBlockSize cuts reduce outputs into DHT-FS blocks, whatever the
// cluster's input block size: almost every output is one block.
const outputBlockSize = 1 << 20

// gatherSegments reads the attempt-tagged spills of each of a task's
// partitions from its holder, all at once, this node's own shard in place,
// and puts each partition's in (task, seq) order with superseded attempts
// and retransmits dropped (dhtfs.MergeTaggedSegments). The streams come
// back partition after partition, in the task's order; unreached lists the
// partitions whose holder could not be read, and those whose merged spills
// do not sum to the partition's bytes: a holder that lost its namespace
// (evicted, or restarted in memory) reads as missing them, not as empty.
// req names a partition at least.
func (w *Worker) gatherSegments(ctx context.Context, req RunReduceReq) (streams [][]byte, unreached []int) {
	segs := make([][]dhtfs.TaggedSegment, len(req.Parts))
	errs := make([]error, len(req.Parts))
	fetch := func(i int) {
		p := req.Parts[i]
		segs[i], errs[i] = w.fs.FetchTaggedSegments(ctx, p.Holder, req.Namespace, partitionName(p.Partition))
	}
	var wg sync.WaitGroup
	for i := 1; i < len(req.Parts); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fetch(i)
		}()
	}
	fetch(0)
	wg.Wait()
	for i, p := range req.Parts {
		merged := dhtfs.MergeTaggedSegments(segs[i])
		var n int64
		for _, data := range merged {
			n += int64(len(data))
		}
		if errs[i] != nil || n != p.Bytes {
			unreached = append(unreached, p.Partition)
			continue
		}
		streams = append(streams, merged...)
	}
	return streams, unreached
}

// runReduce executes one reduce task: gather its partitions' spills from
// their holders (read in place when that is this node), group by key,
// reduce, and persist the output to the DHT file system. A key lives in
// one partition, so one ordered walk over all of the task's partitions
// hands each key its values in the same order a task of its own would,
// and the output file is key-sorted.
func (w *Worker) runReduce(ctx context.Context, req RunReduceReq) (RunReduceResp, error) {
	ctx, task := w.tracer.StartSpan(ctx, "task.reduce")
	defer task.End()
	parts := make([]int, len(req.Parts))
	for i, p := range req.Parts {
		parts[i] = p.Partition
	}
	name := partitionNames(parts)
	task.Annotate("partition", name)
	app, err := lookupApp(req.App)
	if err != nil {
		return RunReduceResp{}, err
	}
	if len(req.Parts) == 0 {
		return RunReduceResp{}, fmt.Errorf("mapreduce: reduce request for %q names no partition", req.OutputFile)
	}
	var resp RunReduceResp
	rctx, recv := w.tracer.StartStage(ctx, "shuffle.recv", w.reg.Histogram("mr.shuffle.recv_ns"))
	// streams is the task's input: each partition's spills in (map task,
	// seq) order, partition after partition.
	streams, unreached := w.gatherSegments(rctx, req)
	recv.End()
	if len(unreached) > 0 {
		task.Annotate("unreached", partitionNames(unreached))
		return RunReduceResp{Unreached: unreached}, nil
	}
	inputBytes := 0
	for _, data := range streams {
		inputBytes += len(data)
	}
	if inputBytes == 0 {
		return resp, nil // empty partitions
	}
	_, comp := w.tracer.StartStage(ctx, "reduce.compute", w.reg.Histogram("mr.reduce.compute_ns"))
	// A reducer mostly writes about what it read (sort: exactly that), so
	// the output is sized once instead of grown pair by pair.
	output := make([]byte, 0, inputBytes)
	emit := func(key string, value []byte) error {
		output = AppendKV(output, KV{Key: key, Value: value})
		return nil
	}
	// The kernel copies the pairs into buckets of the worker's reduce
	// state and orders them there; no pair is hashed on its way to the
	// reducer, and the values it is handed alias the state's buffer.
	groups := w.borrowReduceState()
	if err = groups.group(streams); err != nil {
		err = fmt.Errorf("mapreduce: partitions %s corrupt: %w", name, err)
	} else {
		err = groups.each(func(key string, values [][]byte) error {
			resp.Keys++
			if err := app.Reduce(req.Params, key, values, emit); err != nil {
				return fmt.Errorf("mapreduce: reduce key %q: %w", key, err)
			}
			return nil
		})
	}
	w.returnReduceState(groups)
	comp.End()
	if err != nil {
		return RunReduceResp{}, err
	}
	// The store keeps what it is handed, a local replica as a view of
	// output's array: an output far smaller than the input it was sized
	// to is copied, not left pinning that array until the file goes.
	if cap(output) > 2*len(output) {
		output = slices.Clone(output)
	}
	wctx, wr := w.tracer.StartStage(ctx, "reduce.write", w.reg.Histogram("mr.reduce.write_ns"))
	// The output is handed over, not copied: from here on it is read only,
	// by the store that keeps its blocks.
	_, err = w.fs.Upload(wctx, req.OutputFile, req.User, dhtfs.PermPublic, output, outputBlockSize)
	wr.End()
	if err != nil {
		return RunReduceResp{}, fmt.Errorf("mapreduce: store output %q: %w", req.OutputFile, err)
	}
	resp.OutputBytes = int64(len(output))
	resp.HasOutput = true
	w.reg.Counter("mr.reduce.tasks").Inc()
	w.reg.Counter("mr.reduce.keys").Add(resp.Keys)
	w.reg.Counter("mr.reduce.output_bytes").Add(resp.OutputBytes)
	return resp, nil
}
