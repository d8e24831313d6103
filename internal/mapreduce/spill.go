package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/transport"
)

// spillWindow bounds the async shuffle pipeline per map task: at most
// spillWindow encoded spills queued for the sender plus one batch of at
// most spillWindow spills in flight, so emit blocks (backpressure) once
// 2*spillWindow spills are unacknowledged.
const spillWindow = 4

// spillBufPool recycles the buffers spills travel in (an appendEmitter's
// per-partition buffer, a combineEmitter's combined output) across spills
// and map tasks.
var spillBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

func getSpillBuf() *[]byte {
	b := spillBufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

func putSpillBuf(b *[]byte) {
	if b != nil {
		spillBufPool.Put(b)
	}
}

// spillJob is one finished spill handed to the sender. seq was assigned
// at hand-off in emit order, so the single sender goroutine preserves the
// per-partition sequence the dedup layer expects.
type spillJob struct {
	part int
	seq  int
	buf  *[]byte
}

// spillSender is the asynchronous half of the proactive shuffle (§II-D):
// one goroutine per map task drains finished spills while app.Map keeps
// computing, coalesces spills that share a destination node into one
// PushTaggedSegmentBatch RPC, and joins every push error for the task
// end. Attempt/seq semantics are identical to the old inline path: seq is
// per-partition emit order and each spill must land on at least one of
// its targets.
type spillSender struct {
	w        *Worker
	req      RunMapReq
	inflight *metrics.Gauge
	// names caches partitionName per partition for the task.
	names []string

	jobs chan spillJob
	done chan struct{}

	// Owned by the sender goroutine; read by the task goroutine only
	// after finish() observes done closed.
	partBytes []int64
	errs      []error
	failed    bool
}

func (w *Worker) newSpillSender(ctx context.Context, req RunMapReq) *spillSender {
	s := &spillSender{
		w:         w,
		req:       req,
		inflight:  w.reg.Gauge("mr.shuffle.inflight"),
		names:     make([]string, len(req.ReduceServers)),
		jobs:      make(chan spillJob, spillWindow),
		done:      make(chan struct{}),
		partBytes: make([]int64, len(req.ReduceServers)),
	}
	go s.run(ctx)
	return s
}

// enqueue hands one spill's buffer to the sender, blocking when the
// in-flight window is full. The buffer is owned by the sender from here
// on and is recycled once its push completes.
func (s *spillSender) enqueue(part, seq int, buf *[]byte) {
	s.inflight.Add(1)
	s.jobs <- spillJob{part: part, seq: seq, buf: buf}
}

// finish closes the pipeline, waits for the sender to drain, and returns
// the per-partition byte accounting with every push error joined.
func (s *spillSender) finish() ([]int64, error) {
	close(s.jobs)
	<-s.done
	return s.partBytes, errors.Join(s.errs...)
}

func (s *spillSender) run(ctx context.Context) {
	defer close(s.done)
	for job := range s.jobs {
		batch := []spillJob{job}
		// Coalesce whatever else is already queued, so spills sharing a
		// target travel in one RPC instead of one RPC per (partition,
		// spill).
	drain:
		for len(batch) < spillWindow {
			select {
			case next, ok := <-s.jobs:
				if !ok {
					break drain
				}
				batch = append(batch, next)
			default:
				break drain
			}
		}
		s.send(ctx, batch)
		s.inflight.Add(-int64(len(batch)))
	}
}

// fail records a push error; the sender keeps draining (and discarding)
// so emit never blocks behind a doomed attempt.
func (s *spillSender) fail(err error) {
	s.errs = append(s.errs, err)
	s.failed = true
}

// send pushes one batch of spills, grouped per destination node, then
// recycles the batch's buffers.
func (s *spillSender) send(ctx context.Context, batch []spillJob) {
	defer func() {
		for _, j := range batch {
			putSpillBuf(j.buf)
		}
	}()
	if s.failed {
		return // attempt already failed; just recycle
	}

	// Group the batch per destination node, preserving first-appearance
	// order so the outbound call sequence is deterministic. targetIdx
	// remembers whether a node is a job's owner (0) or replica (1) for
	// the replica-spill accounting.
	type route struct {
		entries   []dhtfs.SegBatchEntry
		jobIdx    []int
		targetIdx []int
	}
	perNode := make(map[hashing.NodeID]*route)
	var order []hashing.NodeID
	stored := make([]int, len(batch))
	for i, j := range batch {
		entry := dhtfs.SegBatchEntry{
			Partition: s.partitionName(j.part),
			Tag:       dhtfs.SegTag{Task: s.req.Task, Attempt: s.req.Attempt, Seq: j.seq},
			Data:      *j.buf,
		}
		targets, n := s.targets(j.part)
		for ti, t := range targets[:n] {
			r := perNode[t]
			if r == nil {
				r = &route{}
				perNode[t] = r
				order = append(order, t)
			}
			r.entries = append(r.entries, entry)
			r.jobIdx = append(r.jobIdx, i)
			r.targetIdx = append(r.targetIdx, ti)
		}
	}

	var lastErr error
	for _, node := range order {
		r := perNode[node]
		if err := s.push(ctx, node, r.entries); err != nil {
			if errors.Is(err, transport.ErrUnreachable) {
				// Skipped target: the reduce side unions the surviving
				// copies, as long as each spill landed somewhere.
				lastErr = err
				continue
			}
			s.fail(fmt.Errorf("mapreduce: spill batch of %d to %s: %w", len(r.entries), node, err))
			return
		}
		for k, i := range r.jobIdx {
			stored[i]++
			if r.targetIdx[k] > 0 {
				s.w.reg.Counter("mr.shuffle.replica_spills").Inc()
			}
		}
	}
	for i, n := range stored {
		if n == 0 {
			s.fail(fmt.Errorf("mapreduce: spill partition %d: no reachable target: %w", batch[i].part, lastErr))
			return
		}
	}
	for _, j := range batch {
		size := int64(len(*j.buf))
		s.partBytes[j.part] += size
		s.w.reg.Counter("mr.shuffle.spills").Inc()
		s.w.reg.Counter("mr.shuffle.bytes").Add(size)
	}
}

// targets lists the nodes one partition's spills must reach: the owner
// and, when the job replicates intermediates, the recorded replica.
func (s *spillSender) targets(part int) (targets [2]hashing.NodeID, n int) {
	targets[0], n = s.req.ReduceServers[part], 1
	if len(s.req.ReduceReplicas) == len(s.req.ReduceServers) {
		if r := s.req.ReduceReplicas[part]; r != "" && r != targets[0] {
			targets[1], n = r, 2
		}
	}
	return targets, n
}

func (s *spillSender) partitionName(part int) string {
	if s.names[part] == "" {
		s.names[part] = partitionName(part)
	}
	return s.names[part]
}

// push delivers one coalesced batch to one node. The legacy untracked
// path (Task "") keeps its one-append-per-spill wire semantics through
// the same batch method: the store appends unconditionally per entry.
func (s *spillSender) push(ctx context.Context, node hashing.NodeID, entries []dhtfs.SegBatchEntry) error {
	defer s.w.reg.Histogram("mr.shuffle.send_ns").Start().Stop()
	ctx, sp := s.w.tracer.StartSpan(ctx, "shuffle.send")
	defer sp.End()
	sp.Annotate("node", string(node))
	sp.Annotate("spills", fmt.Sprintf("%d", len(entries)))
	s.w.reg.Counter("mr.shuffle.batches").Inc()
	s.w.events.Emit(events.KindShuffle, "shuffle.batch", events.F{
		Job: s.req.Job, Task: s.req.Task, Attempt: s.req.Attempt,
		Detail: fmt.Sprintf("%s spills=%d", node, len(entries)),
	})
	return s.w.fs.PushTaggedSegmentBatch(ctx, node, s.req.Namespace, entries, s.req.TTL)
}
