package mapreduce

import (
	"errors"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/scheduler"
	"eclipsemr/internal/transport"
)

// The map-task state machine (DESIGN.md §7 has the full table). A task
// has at most one execution in flight, identified by its attempt number:
// every retry, failover candidate and recovery re-execution runs a
// strictly higher one, and an execution whose attempt is no longer the
// task's changes nothing — its spills may already be superseded in the
// segment store. The transitions below do no I/O and take no lock;
// callers hold Driver.mu.

// taskState is where a map task stands in the job's current map phase.
type taskState uint8

const (
	// taskPending: queued with the scheduler, or between two candidates
	// of a failover walk.
	taskPending taskState = iota
	// taskInFlight: one execution is running.
	taskInFlight
	// taskDone: the execution of the current attempt finished (or the
	// adopted journal says one did); rearm makes the task pending again.
	taskDone
)

// mapTask is the driver's one record of a map task, for the whole run.
type mapTask struct {
	t scheduler.Task
	// sum is the digest the input file's metadata records for the task's
	// block.
	sum hashing.Digest
	// attempt tags the task's current execution. Only fail and rearm
	// move it, always up, so it stays at or above the generation's
	// attemptBase and above every attempt the task has pushed.
	attempt int
	state   taskState
}

// execKind is which path launched an execution of a map task.
type execKind uint8

const (
	// execDispatch: placed by the scheduler; holds a slot on the node.
	execDispatch execKind = iota
	// execFailover: placed on a replica of the input block once the
	// scheduler's retry budget is spent.
	execFailover
)

// mapExec names one execution of a map task.
type mapExec struct {
	kind execKind
	node hashing.NodeID
	// local and waited are the scheduler's assignment facts
	// (execDispatch).
	local  bool
	waited time.Duration
}

// verdict is what an execution did to its task.
type verdict uint8

const (
	// lost: it changed nothing — it never ran because the task wanted no
	// execution, or it finished after the phase was over.
	lost verdict = iota
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

// begin claims a pending mt for one execution. ok is false when the task
// wants none.
func (st *runState) begin(mt *mapTask) (attempt int, ok bool) {
	if !st.open || mt.state != taskPending {
		return 0, false
	}
	mt.state = taskInFlight
	return mt.attempt, true
}

// current reports whether an execution tagged attempt may still decide
// the task.
func (st *runState) current(mt *mapTask, attempt int) bool {
	return st.open && mt.state == taskInFlight && mt.attempt == attempt
}

// finish completes the task for the execution of its current attempt,
// and ends the phase with the last task.
func (st *runState) finish(mt *mapTask, attempt int) bool {
	if !st.current(mt, attempt) {
		return false
	}
	mt.state = taskDone
	st.remaining--
	if st.remaining == 0 {
		st.end(nil)
	}
	return true
}

// fail settles a failed execution. evict says the node was unreachable
// and leaves the scheduler's pool instead of getting its slot back. A
// current failure moves the task to the next attempt and sends it back
// through the scheduler, or to failover once the generation's retry
// budget is spent: the paper's recovery rule, the successor that takes
// over a faulty server's range also holds the block's replica.
func (st *runState) fail(mt *mapTask, attempt int, err error) (v verdict, evict bool) {
	evict = errors.Is(err, transport.ErrUnreachable)
	if !st.current(mt, attempt) {
		return lost, evict
	}
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
