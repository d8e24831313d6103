package mapreduce

import (
	"context"
	"crypto/sha1"
	"errors"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/scheduler"
	"eclipsemr/internal/transport"
)

// The map-task state machine (DESIGN.md §7 has the full table). A task's
// executions are identified by attempt number: the dispatched execution
// and its speculative hedge share one attempt, every retry, failover
// candidate and recovery re-execution runs a strictly higher one, and an
// execution whose attempt is no longer the task's changes nothing —
// its spills may already be superseded in the segment store. The
// transitions below do no I/O and take no lock; callers hold Driver.mu.

// taskState is where a map task stands in the job's current map phase.
type taskState uint8

const (
	// taskPending: queued with the scheduler, or between two candidates
	// of a failover walk.
	taskPending taskState = iota
	// taskInFlight: one execution is running, plus at most one hedge.
	taskInFlight
	// taskDone: an execution of the current attempt finished (or the
	// adopted journal says one did); rearm makes the task pending again.
	taskDone
)

// mapTask is the driver's one record of a map task, for the whole run.
type mapTask struct {
	t scheduler.Task
	// sum is the digest the input file's metadata records for the task's
	// block.
	sum [sha1.Size]byte
	// attempt tags the task's current execution. Only fail and rearm
	// move it, always up, so it stays at or above the generation's
	// attemptBase and above every attempt the task has pushed.
	attempt int
	state   taskState
	// The execution in flight: where, since when, whether the straggler
	// scanner has hedged it, and how to abort it and its hedge.
	node                hashing.NodeID
	started             time.Time
	hedged              bool
	cancel, hedgeCancel context.CancelFunc
}

// stop aborts whatever still runs for the task.
func (mt *mapTask) stop() {
	if mt.cancel != nil {
		mt.cancel()
	}
	if mt.hedgeCancel != nil {
		mt.hedgeCancel()
	}
	mt.cancel, mt.hedgeCancel = nil, nil
}

// overdue reports whether the task's execution has run for threshold
// without having been hedged yet.
func (mt *mapTask) overdue(now time.Time, threshold time.Duration) bool {
	return mt.state == taskInFlight && !mt.hedged && now.Sub(mt.started) >= threshold
}

// execKind is which path launched an execution of a map task.
type execKind uint8

const (
	// execDispatch: placed by the scheduler; holds a slot on the node.
	execDispatch execKind = iota
	// execFailover: placed on a replica of the input block once the
	// scheduler's retry budget is spent.
	execFailover
	// execHedge: speculative duplicate of the attempt in flight.
	execHedge
)

// mapExec names one execution of a map task.
type mapExec struct {
	kind execKind
	node hashing.NodeID
	// local and waited are the scheduler's assignment facts
	// (execDispatch).
	local  bool
	waited time.Duration
	// attempt is the attempt to duplicate (execHedge).
	attempt int
}

// verdict is what an execution did to its task.
type verdict uint8

const (
	// skipped: the execution never ran; the task did not want one.
	skipped verdict = iota
	// lost: it ran and changed nothing — a duplicate or stale finisher,
	// a failed hedge, or the phase was already over.
	lost
	// won: it completed the task.
	won
	// retry: it failed inside the retry budget; resubmit to the scheduler.
	retry
	// failover: it failed with the budget spent; walk the block's
	// replica set.
	failover
)

// st1Base floors an attempt number to its generation's stride base, so
// the per-generation retry budget stays maxAttempts regardless of how
// many earlier generations ran.
func st1Base(attempt int) int { return attempt - attempt%attemptStride }

// begin claims mt for one execution. A dispatched or failover execution
// needs a pending task; a hedge needs the attempt it duplicates to be the
// one still in flight. ok is false when the task wants no such execution.
func (st *runState) begin(mt *mapTask, x mapExec, cancel context.CancelFunc, now time.Time) (attempt int, ok bool) {
	if !st.open {
		return 0, false
	}
	if x.kind == execHedge {
		if mt.state != taskInFlight || mt.attempt != x.attempt {
			return 0, false
		}
		mt.hedgeCancel = cancel
		return mt.attempt, true
	}
	if mt.state != taskPending {
		return 0, false
	}
	mt.state, mt.node, mt.started, mt.hedged = taskInFlight, x.node, now, false
	mt.cancel, mt.hedgeCancel = cancel, nil
	return mt.attempt, true
}

// current reports whether an execution tagged attempt may still decide
// the task.
func (st *runState) current(mt *mapTask, attempt int) bool {
	return st.open && mt.state == taskInFlight && mt.attempt == attempt
}

// finish completes the task for the first finisher of its current
// attempt, aborts the duplicate still in flight, and ends the phase with
// the last task.
func (st *runState) finish(mt *mapTask, attempt int) bool {
	if !st.current(mt, attempt) {
		return false
	}
	mt.state = taskDone
	mt.stop()
	st.remaining--
	if st.remaining == 0 {
		st.end(nil)
	}
	return true
}

// fail settles a failed dispatched or failover execution. evict says the
// node was unreachable and leaves the scheduler's pool instead of getting
// its slot back. A current failure moves the task to the next attempt —
// so a hedge of the failed one can no longer win, and is aborted — and
// sends it back through the scheduler, or to failover once the
// generation's retry budget is spent: the paper's recovery rule, the
// successor that takes over a faulty server's range also holds the
// block's replica.
func (st *runState) fail(mt *mapTask, attempt int, err error) (v verdict, evict bool) {
	evict = errors.Is(err, transport.ErrUnreachable)
	if !st.current(mt, attempt) {
		return lost, evict
	}
	mt.stop()
	mt.state = taskPending
	mt.attempt++
	if mt.attempt >= st1Base(attempt)+st.spec.maxAttempts() {
		return failover, evict
	}
	return retry, evict
}

// rearm readies a settled task for re-execution by a recovery phase, one
// attempt above anything it has pushed.
func (mt *mapTask) rearm() {
	mt.attempt++
	mt.state = taskPending
}

// end delivers the map phase's outcome, once: to whichever comes first of
// the last task finishing, a failover walk running out of candidates, the
// job's ctx being cancelled and the driver closing.
func (st *runState) end(err error) {
	if !st.open {
		return
	}
	st.open = false
	st.outcome <- err
}
