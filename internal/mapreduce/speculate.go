package mapreduce

import (
	"time"

	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
)

// Speculative straggler re-execution: a single scanner goroutine watches
// the map tasks in flight and hedges a duplicate execution of any that
// has been running suspiciously long — longer than a configurable
// multiple of the driver-wide p99 map latency observed so far, or past a
// hard per-task deadline. The hedge runs on a ring replica of the task's
// input block; what happens next is the task's state machine
// (maptask.go, DESIGN.md §7).
//
// Hedges reuse the original attempt number on purpose. Map execution is
// deterministic, so the hedge pushes byte-identical (task, attempt, seq)
// spill segments, which the segment store treats as idempotent
// retransmits. A bumped attempt would be wrong: the store deletes
// lower-attempt spills when a higher attempt arrives, so a hedge that
// spilled partially and then lost the race (or failed) would have
// destroyed the original's data.

const (
	// speculationTick is the scanner period; cheap (a walk over the
	// speculative jobs' tasks and one histogram snapshot), so it can be
	// tight enough to catch stragglers in short test jobs.
	speculationTick = 2 * time.Millisecond
	// speculationMinSamples gates p99-relative detection until the
	// latency histogram has enough completions to mean something.
	speculationMinSamples = 16
	// speculationMaxHedges bounds concurrent hedge RPCs driver-wide, so a
	// slow cluster cannot amplify its own load with duplicate work.
	speculationMaxHedges = 16
)

// speculationLoop drives the periodic straggler scan.
func (d *Driver) speculationLoop() {
	ticker := time.NewTicker(speculationTick)
	defer ticker.Stop()
	for range ticker.C {
		d.mu.Lock()
		closed := d.closed
		d.mu.Unlock()
		if closed {
			return
		}
		d.speculatePass(time.Now())
	}
}

// speculatePass hedges every map execution that exceeds its job's
// straggler threshold, as far as the hedge budget reaches; the next pass
// retries the rest.
func (d *Driver) speculatePass(now time.Time) {
	snap := d.reg.Histogram("mr.driver.map_rpc_ns").Snapshot()
	var p99 time.Duration
	if snap.Count() >= speculationMinSamples {
		p99 = time.Duration(snap.Quantile(0.99))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, st := range d.jobs {
		threshold := time.Duration(0)
		if m := st.spec.SpeculativeMultiple; m > 0 && p99 > 0 {
			threshold = time.Duration(float64(p99) * m)
		}
		if dl := st.spec.SpeculativeDeadline; dl > 0 && (threshold == 0 || dl < threshold) {
			threshold = dl
		}
		if threshold <= 0 {
			continue
		}
		for _, mt := range st.tasks {
			if !mt.overdue(now, threshold) {
				continue
			}
			select {
			case d.hedgeSem <- struct{}{}:
				mt.hedged = true
				go func(st *runState, mt *mapTask, attempt int, from hashing.NodeID) {
					d.hedgeMap(st, mt, attempt, from)
					<-d.hedgeSem
				}(st, mt, mt.attempt, mt.node)
			default:
			}
		}
	}
}

// hedgeMap runs one speculative duplicate of a straggling execution on a
// ring replica of its input block other than the straggler.
func (d *Driver) hedgeMap(st *runState, mt *mapTask, attempt int, from hashing.NodeID) {
	replicas := d.replicasExcept(mt, from)
	if len(replicas) == 0 {
		return // no distinct replica to hedge on
	}
	r := d.execMap(st, mt, mapExec{kind: execHedge, node: replicas[0], attempt: attempt})
	ev := events.F{Job: st.spec.ID, Task: mt.t.ID, Attempt: attempt, Detail: string(replicas[0])}
	switch r.verdict {
	case skipped:
		return // the execution to duplicate was over before the hedge began
	case won:
		d.reg.Counter("mr.driver.speculative_won").Inc()
		d.events.Emit(events.KindSpec, "spec.win", ev)
	default:
		d.reg.Counter("mr.driver.speculative_wasted").Inc()
		d.events.Emit(events.KindSpec, "spec.waste", ev)
	}
	d.signal()
}
