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
// per-partition emit order. Each spill has one target, its partition's
// owner; a push that finds the owner unreachable marks the partition lost
// instead of failing the task, and the partition's later spills are not
// pushed.
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
	lost      []bool
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
		lost:      make([]bool, len(req.ReduceServers)),
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
// the per-partition byte accounting, the lost partitions in ascending
// order and every push error joined.
func (s *spillSender) finish() (partBytes []int64, lost []int, err error) {
	close(s.jobs)
	<-s.done
	for part, l := range s.lost {
		if l {
			lost = append(lost, part)
		}
	}
	return s.partBytes, lost, errors.Join(s.errs...)
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

	// Group the batch per owner, preserving first-appearance order so the
	// outbound call sequence is deterministic.
	perNode := make(map[hashing.NodeID][]dhtfs.SegBatchEntry)
	var order []hashing.NodeID
	for _, j := range batch {
		if s.lost[j.part] {
			continue
		}
		owner := s.req.ReduceServers[j.part]
		if perNode[owner] == nil {
			order = append(order, owner)
		}
		perNode[owner] = append(perNode[owner], dhtfs.SegBatchEntry{
			Partition: s.partitionName(j.part),
			Tag:       dhtfs.SegTag{Task: s.req.Task, Attempt: s.req.Attempt, Seq: j.seq},
			Data:      *j.buf,
		})
	}
	for _, node := range order {
		entries := perNode[node]
		if err := s.push(ctx, node, entries); err != nil {
			if !errors.Is(err, transport.ErrUnreachable) {
				s.fail(fmt.Errorf("mapreduce: spill batch of %d to %s: %w", len(entries), node, err))
				return
			}
			// The owner is gone, or cut off from this node: the task goes
			// on, and reports the owner's partitions lost for the driver
			// to re-home before any of them is reduced.
			for _, j := range batch {
				if s.req.ReduceServers[j.part] == node {
					s.lost[j.part] = true
				}
			}
		}
	}
	// A lost partition's spills still count in partBytes: its reduce is
	// owed, wherever the partition lands.
	for _, j := range batch {
		size := int64(len(*j.buf))
		s.partBytes[j.part] += size
		if !s.lost[j.part] {
			s.w.reg.Counter("mr.shuffle.spills").Inc()
			s.w.reg.Counter("mr.shuffle.bytes").Add(size)
		}
	}
}

func (s *spillSender) partitionName(part int) string {
	if s.names[part] == "" {
		s.names[part] = partitionName(part)
	}
	return s.names[part]
}

// push delivers one coalesced batch to one node.
func (s *spillSender) push(ctx context.Context, node hashing.NodeID, entries []dhtfs.SegBatchEntry) error {
	ctx, sp := s.w.tracer.StartStage(ctx, "shuffle.send", s.w.reg.Histogram("mr.shuffle.send_ns"))
	defer sp.End()
	sp.Annotate("node", string(node))
	sp.Annotate("spills", fmt.Sprintf("%d", len(entries)))
	s.w.reg.Counter("mr.shuffle.batches").Inc()
	s.w.events.Emit(events.KindShuffle, "shuffle.batch", events.F{
		Job: s.req.Job, Task: s.req.Task, Attempt: s.req.Attempt,
		Detail: fmt.Sprintf("%s spills=%d", node, len(entries)),
	})
	return s.w.fs.PushTaggedSegmentBatch(ctx, node, s.req.Namespace, entries)
}
