package mapreduce

import (
	"context"
	"crypto/sha1"
	"fmt"
	"slices"
	"time"

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
		// BlockSum is the block's SHA-1 from the input file's metadata. It
		// verifies a remote read and, with BlockKey, names what iCache
		// holds of the block, so entries a deleted file left behind under
		// the same key are never served. Zero when the metadata has no
		// digests (files stored before digests were kept).
		BlockSum [sha1.Size]byte
		// Task names the map task and Attempt counts its executions
		// (0-based), so spills from retried or re-dispatched attempts
		// supersede rather than duplicate earlier ones. An empty Task
		// selects the legacy untracked append path.
		Task    string
		Attempt int
		// ReduceServers / ReduceBounds describe the reduce partition
		// table fixed at job start (partition i is owned by
		// ReduceServers[i]).
		ReduceServers []hashing.NodeID
		ReduceBounds  []hashing.Key
		// ReduceReplicas, when parallel to ReduceServers, names a second
		// spill target per partition (the owner's ring successor at job
		// start) for crash-tolerant intermediates.
		ReduceReplicas []hashing.NodeID
		// OnlyPartitions, when non-empty, restricts output to the listed
		// reduce partitions: pairs hashing elsewhere are discarded instead
		// of buffered and shuffled. Partition recovery uses this to rebuild
		// only the lost partitions.
		OnlyPartitions []int
		SpillThreshold int
		TTL            time.Duration
	}
	// RunMapResp reports the intermediate bytes pushed per partition —
	// the mapper's "notify the scheduler with their hash keys" step.
	RunMapResp struct {
		PartBytes []int64
		// CacheHit reports the input was served from iCache: the block's
		// bytes or, for a decoding application, its decoded split.
		CacheHit bool
		// RemoteRead reports the block came from a remote server's shard.
		RemoteRead bool
	}
	// RunReduceReq asks a worker to execute one reduce task.
	RunReduceReq struct {
		Job       string
		Namespace string
		App       string
		Params    Params
		Partition int
		// SegmentOwner is the node holding the partition's spills.
		SegmentOwner hashing.NodeID
		// SegmentReplicas, when set, lists every node that may hold part
		// of the partition's spills (owner plus replicas); the reduce then
		// unions the attempt-tagged segments from all reachable members.
		SegmentReplicas []hashing.NodeID
		OutputFile      string
		// OutputBlockSize sizes the DHT-FS blocks of the output file.
		OutputBlockSize    int
		CacheIntermediates bool
		CacheOutputs       bool
		// Epoch keys the merged-intermediate oCache entry. The driver
		// bumps it whenever partition recovery or a resumed generation
		// re-executes maps with higher attempts, so a re-homed or retried
		// reduce can never serve a stale merged blob cached before the
		// supersede.
		Epoch int
		TTL   time.Duration
		User  string
	}
	// RunReduceResp summarizes a reduce task.
	RunReduceResp struct {
		Keys        int64
		OutputBytes int64
		// InputCached reports the merged partition input came from oCache.
		InputCached bool
		// HasOutput reports whether an output file was written (empty
		// partitions produce none).
		HasOutput bool
	}
)

// Worker method names.
const (
	MethodRunMap    = "mr.runMap"
	MethodRunReduce = "mr.runReduce"
)

// Worker executes map and reduce tasks on one node. It reads input blocks
// through the node's iCache, proactively shuffles intermediate results to
// reducer-side nodes, and serves reduce tasks from locally stored
// segments (or oCache).
type Worker struct {
	self   hashing.NodeID
	fs     *dhtfs.Service
	cache  *cache.NodeCache
	net    transport.Network
	reg    *metrics.Registry
	tracer *trace.Tracer
	events *events.Log
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
// local DHT-FS shard, then a remote read that populates iCache so the
// popular block is now cached *here*, in the range the scheduler mapped it
// to — independent of where the file system stored it. The caller releases
// the buffer when done reading; the iCache entry holds its own reference.
func (w *Worker) fetchBlock(ctx context.Context, id cache.BlockID) (buf *blockbuf.Buf, cacheHit, remote bool, err error) {
	if buf, ok := w.cache.GetBlockVersion(id); ok {
		return buf, true, false, nil
	}
	if buf, err := w.fs.Store().PinBlock(id.Key); err == nil {
		w.cache.PutBlockVersion(id, buf)
		return buf, false, false, nil
	}
	if buf, err = w.fs.PinBlock(ctx, id.Key, id.Sum); err != nil {
		return nil, false, false, err
	}
	w.cache.PutBlockVersion(id, buf)
	return buf, false, true, nil
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
	readTimer := w.reg.Histogram("mr.map.read_ns").Start()
	rctx, rd := w.tracer.StartSpan(ctx, "map.read")
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
	readTimer.Stop()
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
	out := newMapEmitter(table, req, app.Combine, len(input), sender.enqueue)

	// Compute covers the user functions (decoding a split iCache missed
	// included) and everything emit does on this goroutine: partitioning,
	// buffering and, for applications with a combiner, combining each
	// spill. The batch pushes run on the sender
	// goroutine and are timed as mr.shuffle.send_ns (their spans parent
	// under task.map, not map.compute); waiting for them is not compute.
	computeTimer := w.reg.Histogram("mr.map.compute_ns").Start()
	_, comp := w.tracer.StartSpan(ctx, "map.compute")
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
	computeTimer.Stop()
	// The user functions have returned and may not have kept input (see
	// App): the task is done reading the block.
	block.Release()
	out.release() // whatever a failed map left unflushed
	// The task is not done until every queued push is acknowledged;
	// errors from background pushes fail the attempt exactly like the old
	// inline path did.
	partBytes, sendErr := sender.finish()
	if mapErr != nil {
		return RunMapResp{}, fmt.Errorf("mapreduce: map %s on block %s: %w", req.App, req.BlockKey, mapErr)
	}
	if sendErr != nil {
		return RunMapResp{}, sendErr
	}
	return RunMapResp{PartBytes: partBytes, CacheHit: cacheHit, RemoteRead: remote}, nil
}

// partitionName is the segment-store partition label for index part.
func partitionName(part int) string { return fmt.Sprintf("p%04d", part) }

// mergedTag is the oCache data ID of a partition's merged reduce input.
// The epoch is part of the key: entries cached before a recovery round or
// a resumed generation (which push superseding attempts) are simply never
// looked up again.
func mergedTag(part, epoch int) string {
	return fmt.Sprintf("merged:%s@e%d", partitionName(part), epoch)
}

// gatherReplicatedSegments unions the attempt-tagged spills of a partition
// from every reachable replica. Each spill reached at least one member of
// the set (pushSpill's invariant), so the union over the reachable members
// is complete as long as at least one answers; duplicates and superseded
// attempts are resolved by dhtfs.MergeTaggedSegments.
func (w *Worker) gatherReplicatedSegments(ctx context.Context, req RunReduceReq) ([][]byte, error) {
	partition := partitionName(req.Partition)
	var tagged []dhtfs.TaggedSegment
	reached := 0
	var lastErr error
	for _, t := range req.SegmentReplicas {
		var segs []dhtfs.TaggedSegment
		var err error
		if t == w.self {
			segs = w.fs.Store().ReadTaggedSegments(req.Namespace, partition)
		} else {
			segs, err = w.fs.FetchTaggedSegments(ctx, t, req.Namespace, partition)
		}
		if err != nil {
			lastErr = err
			continue
		}
		reached++
		tagged = append(tagged, segs...)
	}
	if reached == 0 {
		return nil, fmt.Errorf("mapreduce: partition %d: no segment replica reachable: %w",
			req.Partition, lastErr)
	}
	return dhtfs.MergeTaggedSegments(tagged), nil
}

// runReduce executes one reduce task: gather the partition's intermediate
// data (oCache, local segments, or a remote fetch if scheduled off the
// segment owner), group by key, reduce, and persist the output to the DHT
// file system.
func (w *Worker) runReduce(ctx context.Context, req RunReduceReq) (RunReduceResp, error) {
	ctx, task := w.tracer.StartSpan(ctx, "task.reduce")
	defer task.End()
	task.Annotate("partition", partitionName(req.Partition))
	app, err := lookupApp(req.App)
	if err != nil {
		return RunReduceResp{}, err
	}
	var resp RunReduceResp
	// streams is the partition's input: the spills in arrival order, or
	// their concatenation when it comes from (or goes to) oCache.
	var streams [][]byte
	if data, ok := w.cache.GetTagged(req.Namespace, mergedTag(req.Partition, req.Epoch)); ok {
		streams = [][]byte{data}
		resp.InputCached = true
		task.Annotate("cache", "hit")
	} else {
		task.Annotate("cache", "miss")
		recvTimer := w.reg.Histogram("mr.shuffle.recv_ns").Start()
		rctx, recv := w.tracer.StartSpan(ctx, "shuffle.recv")
		if len(req.SegmentReplicas) > 0 {
			streams, err = w.gatherReplicatedSegments(rctx, req)
			if err != nil {
				recv.End()
				return RunReduceResp{}, err
			}
		} else if req.SegmentOwner == w.self {
			streams = w.fs.Store().ReadSegments(req.Namespace, partitionName(req.Partition))
		} else {
			streams, err = w.fs.FetchSegments(rctx, req.SegmentOwner, req.Namespace, partitionName(req.Partition))
			if err != nil {
				recv.End()
				return RunReduceResp{}, fmt.Errorf("mapreduce: fetch segments for partition %d: %w",
					req.Partition, err)
			}
		}
		recv.End()
		recvTimer.Stop()
		if req.CacheIntermediates {
			if merged := slices.Concat(streams...); len(merged) > 0 {
				tag := mergedTag(req.Partition, req.Epoch)
				w.cache.PutTagged(req.Namespace, tag,
					hashing.KeyOfString(req.Namespace+tag), merged, req.TTL)
				streams = [][]byte{merged}
			}
		}
	}
	inputBytes := 0
	for _, data := range streams {
		inputBytes += len(data)
	}
	if inputBytes == 0 {
		return resp, nil // empty partition
	}
	computeTimer := w.reg.Histogram("mr.reduce.compute_ns").Start()
	_, comp := w.tracer.StartSpan(ctx, "reduce.compute")
	// A reducer mostly writes about what it read (sort: exactly that), so
	// the output is sized once instead of grown pair by pair.
	output := make([]byte, 0, inputBytes)
	emit := func(key string, value []byte) error {
		output = AppendKV(output, KV{Key: key, Value: value})
		return nil
	}
	// The kernel orders the pairs where they lie in the encoded streams:
	// keys and values alias them (they outlive the loop and are never
	// written), so no pair is copied or hashed on its way to the reducer.
	groups, err := groupStreams(streams)
	if err != nil {
		comp.End()
		return RunReduceResp{}, fmt.Errorf("mapreduce: partition %d corrupt: %w", req.Partition, err)
	}
	err = groups.each(func(key string, values [][]byte) error {
		resp.Keys++
		if err := app.Reduce(req.Params, key, values, emit); err != nil {
			return fmt.Errorf("mapreduce: reduce key %q: %w", key, err)
		}
		return nil
	})
	comp.End()
	if err != nil {
		return RunReduceResp{}, err
	}
	computeTimer.Stop()
	blockSize := req.OutputBlockSize
	if blockSize <= 0 {
		blockSize = 1 << 20
	}
	writeTimer := w.reg.Histogram("mr.reduce.write_ns").Start()
	wctx, wr := w.tracer.StartSpan(ctx, "reduce.write")
	_, err = w.fs.Upload(wctx, req.OutputFile, req.User, dhtfs.PermPublic, output, blockSize)
	wr.End()
	writeTimer.Stop()
	if err != nil {
		return RunReduceResp{}, fmt.Errorf("mapreduce: store output %q: %w", req.OutputFile, err)
	}
	if req.CacheOutputs {
		// oCache charges an entry its length: it gets no spare capacity.
		cached := output
		if cap(cached) > len(cached) {
			cached = slices.Clone(cached)
		}
		w.cache.PutTagged(req.Namespace, "out:"+partitionName(req.Partition),
			hashing.KeyOfString(req.OutputFile), cached, req.TTL)
	}
	resp.OutputBytes = int64(len(output))
	resp.HasOutput = true
	w.reg.Counter("mr.reduce.tasks").Inc()
	w.reg.Counter("mr.reduce.keys").Add(resp.Keys)
	w.reg.Counter("mr.reduce.output_bytes").Add(resp.OutputBytes)
	return resp, nil
}
