package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/scheduler"
	"eclipsemr/internal/trace"
	"eclipsemr/internal/transport"
)

// Driver orchestrates MapReduce jobs from the job-scheduler node: it
// resolves input metadata through the DHT file system, feeds map tasks to
// the pluggable scheduling policy, dispatches tasks to workers over the
// transport, schedules reduce tasks at the nodes storing the intermediate
// results, and assembles results.
//
// A single Driver runs any number of jobs concurrently (the paper's
// Figure 8 batches seven): one dispatcher goroutine owns the scheduling
// policy and routes each assignment to the job that submitted the task,
// so concurrent Run calls share worker slots under the policy.
//
// Jobs self-heal: progress is journaled through the DHT file system so an
// interrupted job can be adopted with Resume, a reduce partition lost
// with its owner is rebuilt by re-executing the contributing maps with a
// partition filter, and straggling map tasks are hedged speculatively
// when the spec enables it.
type Driver struct {
	self  hashing.NodeID
	net   transport.Network
	fs    *dhtfs.Service
	sched scheduler.Scheduler
	ring  func() *hashing.ChordRing
	// reduceSlots bounds concurrent reduce tasks per node.
	reduceSlots int
	start       time.Time
	reg         *metrics.Registry
	tracer      *trace.Tracer
	events      *events.Log
	// flight, when set, is invoked after a job fails or survives a
	// recovery round (see SetFlightRecorder).
	flight func(job, reason string)

	// mu guards the fields below and, for every registered job, its map
	// phase and map tasks (runState, maptask.go).
	mu sync.Mutex
	// jobs holds the jobs currently in a map phase, by job ID.
	jobs map[string]*runState
	// wake nudges the dispatcher; buffered so signalling never blocks.
	wake    chan struct{}
	started bool
	closed  bool
	// specOn says the straggler scanner runs; hedgeSem bounds concurrent
	// hedge RPCs (speculate.go).
	specOn   bool
	hedgeSem chan struct{}
}

// NewDriver builds a Driver. The scheduler must already know the worker
// nodes and their map slots; reduceSlots bounds reducer concurrency per
// node (the paper configures 8 map and 8 reduce slots per server).
func NewDriver(self hashing.NodeID, net transport.Network, fs *dhtfs.Service,
	sched scheduler.Scheduler, ring func() *hashing.ChordRing, reduceSlots int) (*Driver, error) {
	if fs == nil || sched == nil || ring == nil {
		return nil, errors.New("mapreduce: driver requires fs, scheduler and ring")
	}
	if reduceSlots <= 0 {
		reduceSlots = 8
	}
	d := &Driver{
		self:        self,
		net:         net,
		fs:          fs,
		sched:       sched,
		ring:        ring,
		reduceSlots: reduceSlots,
		start:       time.Now(),
		reg:         metrics.NewRegistry(),
		jobs:        make(map[string]*runState),
		wake:        make(chan struct{}, 1),
		hedgeSem:    make(chan struct{}, speculationMaxHedges),
	}
	// Pre-created so every metrics snapshot shows the retry, failover,
	// recovery and speculation counters, even at zero.
	for _, name := range []string{
		"mr.driver.map_retries",
		"mr.driver.map_failovers",
		"mr.driver.reduce_failovers",
		"mr.driver.partition_recoveries",
		"mr.driver.partition_reduces",
		"mr.driver.parts_skipped_resume",
		"mr.driver.journal_resumes",
		"mr.driver.journal_errors",
		"mr.driver.speculative_launched",
		"mr.driver.speculative_won",
		"mr.driver.speculative_wasted",
	} {
		d.reg.Counter(name)
	}
	return d, nil
}

// Metrics exposes the driver's retry, failover, recovery and speculation
// counters.
func (d *Driver) Metrics() *metrics.Registry { return d.reg }

// SetTracer wires the node's tracer into the driver. Call before
// submitting jobs; a nil tracer (the default) disables driver spans.
func (d *Driver) SetTracer(tr *trace.Tracer) { d.tracer = tr }

// SetEvents wires the manager node's structured event log into the
// driver so job, task, speculation and journal transitions land in the
// flight recorder (nil, the default, disables emission). Call before
// submitting jobs.
func (d *Driver) SetEvents(l *events.Log) { d.events = l }

// SetFlightRecorder registers the failure-capture hook: fn runs after a
// job fails ("job_failed") or survives a recovery round ("recovery"),
// with no driver locks held. Deployments snapshot a debug bundle here.
// Call before submitting jobs.
func (d *Driver) SetFlightRecorder(fn func(job, reason string)) { d.flight = fn }

// recordFlight invokes the failure-capture hook, if any.
func (d *Driver) recordFlight(job, reason string) {
	if d.flight != nil {
		d.flight(job, reason)
	}
}

// since returns the driver's monotonic time, the clock fed to the
// scheduling policy.
func (d *Driver) since() time.Duration { return time.Since(d.start) }

// marker is the completion record persisted to the DHT file system when a
// job with a reuse tag finishes its map phase; a later job with the same
// tag reads it instead of re-running the maps.
type marker struct {
	Servers   []hashing.NodeID
	Bounds    []hashing.Key
	PartBytes []int64
	// Replicas, when the job replicates intermediates, names each
	// partition owner's ring successor at job start; recording it here
	// keeps the spill-target table stable even if the ring changes
	// mid-job.
	Replicas []hashing.NodeID
	// Expires invalidates the marker (and with it reuse of the stored
	// intermediates) once the job's IntermediateTTL lapses; zero means no
	// TTL.
	Expires time.Time
	// Partitioner is the partitionerID of the binary whose maps filled the
	// table's partitions.
	Partitioner int
}

// partitionerID names how this binary's map tasks place an intermediate
// key in the reduce table: 1 is hashing.ShuffleKey; 0, the gob zero value
// and so what every marker and journal written before the field existed
// says, was hashing.KeyOfString (SHA-1). Which partition holds a key is
// part of what stored spills mean: maps run under one id and maps run
// under another may not feed the same reduce, or a key's values end up
// in two partitions. Change the emitters' placement, change the id.
const partitionerID = 1

// dropForeignIntermediates empties a namespace whose stored spills another
// partitioner placed, so that nothing of them is resumed or reused
// piecemeal, and leaves one record saying why the maps run again. found is
// what recorded the other id ("journal", "reuse marker").
func (d *Driver) dropForeignIntermediates(ctx context.Context, spec JobSpec, found string, id int) {
	d.events.Emit(events.KindJournal, "journal.partitioner_mismatch", events.F{
		Job: spec.ID,
		Detail: fmt.Sprintf("%s written under partitioner %d, this binary is %d: stored intermediates dropped, maps re-run",
			found, id, partitionerID),
	})
	d.fs.DropJob(ctx, spec.Namespace())
}

func markerFile(namespace string) string { return "_mr/" + namespace + "/done" }

// runState is the driver's one record of a running job: the partition
// table, the journal writer, every map task, and the map phase the tasks
// are currently in, if any. A run opens one map phase for the job's
// unfinished maps and one per partition-recovery round.
type runState struct {
	// ctx carries the job's root span; task spans parent under it and
	// task RPCs are cancelled through it.
	//lint:ignore ctxflow runState IS the per-call state of one run invocation — the field scopes the job's ctx to the job, not beyond it
	ctx  context.Context
	spec JobSpec
	ns   string
	mk   *marker
	res  *Result
	jw   *journalWriter // nil with DisableJournal
	// attemptBase is this driver generation's first attempt number
	// (resumed runs start a fresh stride above every prior generation).
	attemptBase int
	// reduceEpoch keys the workers' merged-intermediate cache entries for
	// this run. It starts at attemptBase (unique per generation) and is
	// bumped on every partition-recovery round, so merged blobs cached
	// before superseding attempts were pushed are never served again.
	reduceEpoch int
	// tasks lists every contributing map task in input order, byID
	// indexes them for the dispatcher (both empty when the map phase was
	// reused via tag: the intermediates are shared, not re-executable).
	tasks []*mapTask
	byID  map[string]*mapTask
	// partsDone maps finished partitions to their recorded output file
	// ("" = no output).
	partsDone map[int]string

	// The map phase, valid while open. only, when non-empty, makes it a
	// re-shuffle: the tasks push just the listed reduce partitions, which
	// mk.PartBytes already counts and whose tasks the journal already
	// lists, so completions touch neither. remaining counts unfinished
	// tasks; outcome (buffered, 1) receives the result through end.
	open      bool
	only      []int
	remaining int
	outcome   chan error
}

// Run executes one job to completion. Run may be called concurrently for
// different jobs; job IDs must be unique among in-flight jobs.
func (d *Driver) Run(spec JobSpec) (Result, error) {
	//lint:ignore ctxflow Run is the ctx-less convenience entry point; RunContext is the threaded form
	return d.RunContext(context.Background(), spec)
}

// RunContext is Run with caller-controlled cancellation: canceling ctx
// aborts the job between task dispatches (in-flight worker RPCs run to
// completion and are journaled, so a later Resume skips them).
func (d *Driver) RunContext(ctx context.Context, spec JobSpec) (Result, error) {
	if err := spec.validate(); err != nil {
		return Result{}, err
	}
	return d.run(ctx, spec, nil)
}

// run executes a job, fresh (prior == nil) or adopted from a journal.
func (d *Driver) run(ctx context.Context, spec JobSpec, prior *journal) (_ Result, err error) {
	began := time.Now()
	ns := spec.Namespace()
	res := Result{Job: spec.ID, Resumed: prior != nil}

	// The job is the trace: its ID is the trace ID, and this root span
	// covers the whole run. Every task span on every node descends from it.
	ctx, root := d.tracer.StartRoot(ctx, spec.ID, "driver.job")
	root.Annotate("app", spec.App)
	defer root.End()

	d.events.Emit(events.KindJob, "job.submit", events.F{Job: spec.ID, Detail: spec.App})
	// The terminal job event (and the failure capture) covers every exit
	// path, including the early journaled-done return below.
	defer func() {
		if err != nil {
			d.events.Emit(events.KindJob, "job.failed", events.F{Job: spec.ID, Detail: err.Error()})
			d.recordFlight(spec.ID, "job_failed")
		} else {
			d.events.Emit(events.KindJob, "job.done", events.F{Job: spec.ID})
		}
	}()

	if prior != nil {
		if prior.Phase == phaseDone {
			// The job finished before the previous driver died; hand back
			// the journaled result instead of re-running anything.
			root.Annotate("resume", phaseDone)
			for _, f := range prior.PartsDone {
				if f != "" {
					res.OutputFiles = append(res.OutputFiles, f)
				}
			}
			sort.Strings(res.OutputFiles)
			res.MapsSkipped = true
			res.Elapsed = time.Since(began)
			return res, nil
		}
		root.Annotate("resume", prior.Phase)
		d.reg.Counter("mr.driver.journal_resumes").Inc()
		d.events.Emit(events.KindJournal, "journal.resume", events.F{Job: spec.ID, Detail: prior.Phase})
		if prior.Mk.Partitioner != partitionerID {
			// Nothing the journal lists as done can be kept: adopt the job
			// (its table, and its generation, so the new attempts outrank
			// whatever a node that missed the drop still holds) at the
			// start of its map phase.
			d.dropForeignIntermediates(ctx, spec, "journal", prior.Mk.Partitioner)
			for _, out := range prior.PartsDone {
				if out != "" {
					_ = d.fs.Delete(ctx, out, spec.User) // best effort: a non-empty partition overwrites its file anyway
				}
			}
			prior.Phase, prior.MapsDone, prior.PartsDone = phaseMap, nil, nil
			prior.Mk.PartBytes = make([]int64, len(prior.Mk.Servers))
			prior.Mk.Partitioner = partitionerID
		}
	}

	// Reuse path: a completed map phase under this namespace lets the job
	// skip straight to reducing (§II-C). Resumed runs already carry their
	// partition table in the journal.
	var mk marker
	reused := false
	if prior != nil {
		mk = copyMarker(&prior.Mk)
	} else if spec.ReuseTag != "" {
		if data, err := d.fs.ReadFile(ctx, markerFile(ns), spec.User); err == nil {
			//lint:ignore wiremsg durable file (the reuse marker in dhtfs), written once per job and read back by later binaries: it stays on gob
			if err := transport.Decode(data, &mk); err != nil {
				return Result{}, fmt.Errorf("mapreduce: corrupt reuse marker for %q: %w", ns, err)
			}
			switch {
			case mk.Partitioner != partitionerID:
				d.dropForeignIntermediates(ctx, spec, "reuse marker", mk.Partitioner)
				mk = marker{}
			case mk.Expires.IsZero() || d.fs.Now().Before(mk.Expires):
				reused = true
			default:
				// The TTL on stored intermediate results invalidates reuse.
				mk = marker{}
			}
		}
	}
	if prior == nil && !reused {
		table, err := d.ring().RangeTable()
		if err != nil {
			return Result{}, err
		}
		mk.Partitioner = partitionerID
		mk.Servers = table.Servers()
		mk.Bounds = table.Bounds()
		mk.PartBytes = make([]int64, table.Len())
		if spec.ReplicateIntermediates {
			mk.Replicas = make([]hashing.NodeID, len(mk.Servers))
			ring := d.ring()
			for i, owner := range mk.Servers {
				if succ, err := ring.Successor(owner); err == nil && succ != owner {
					mk.Replicas[i] = succ
				}
			}
		}
	}

	st := &runState{
		ctx:       ctx,
		spec:      spec,
		ns:        ns,
		mk:        &mk,
		res:       &res,
		partsDone: make(map[int]string),
	}
	if prior != nil {
		for part, out := range prior.PartsDone {
			st.partsDone[part] = out
		}
		st.attemptBase = (prior.Generation + 1) * attemptStride
	}
	st.reduceEpoch = st.attemptBase
	if !spec.DisableJournal {
		st.jw = d.newJournalWriter(ctx, spec, &mk, prior)
		// The final flush on every exit path leaves even an aborted run
		// adoptable at its latest progress.
		defer st.jw.close(ctx)
	}

	runMaps := !reused && (prior == nil || prior.Phase == phaseMap)
	// todo are the maps this run still owes; journaled are the ones an
	// adopted journal records as done.
	var todo, journaled []*mapTask
	if !reused {
		// Partition recovery re-executes the contributing map tasks, so
		// they are expanded even when the journal says the map phase is
		// done. (A tag-reused map phase shares its intermediates with
		// other jobs and is not re-executable here.)
		if err := d.expandMapTasks(st); err != nil {
			return Result{}, err
		}
		for _, mt := range st.tasks {
			if prior != nil && prior.MapsDone[mt.t.ID] {
				mt.state = taskDone
				journaled = append(journaled, mt)
			} else {
				todo = append(todo, mt)
			}
		}
	}

	// A journal adoption may find partition owners that died with the
	// previous driver (most commonly the old manager itself). They must be
	// re-homed before any map runs, or the resumed maps would push their
	// spills at dead nodes and fail the phase.
	var deadParts []int
	if prior != nil {
		var err error
		deadParts, err = d.adoptPartitions(st)
		if err != nil {
			return Result{}, err
		}
	}

	if runMaps {
		res.MapTasks = len(todo)
		if len(todo) > 0 {
			d.events.Emit(events.KindJob, "job.phase.map", events.F{
				Job: spec.ID, Detail: fmt.Sprintf("tasks=%d", len(todo)),
			})
			if err := d.runMapPhase(st, todo, nil); err != nil {
				return Result{}, err
			}
		}
		if spec.ReuseTag != "" {
			if spec.IntermediateTTL > 0 {
				mk.Expires = d.fs.Now().Add(spec.IntermediateTTL)
			}
			//lint:ignore wiremsg durable file (the reuse marker in dhtfs), written once per job and read back by later binaries: it stays on gob
			data, err := transport.Encode(mk)
			if err != nil {
				return Result{}, err
			}
			// data is handed over to the store, never touched again.
			if _, err := d.fs.Upload(ctx, markerFile(ns), spec.User, dhtfs.PermPublic, data, 1<<20); err != nil {
				return Result{}, fmt.Errorf("mapreduce: store reuse marker: %w", err)
			}
		}
	} else {
		res.MapsSkipped = true
		if reused {
			root.Annotate("maps", "reused")
		} else {
			root.Annotate("maps", "journaled")
		}
	}
	// Journaled-done maps never re-ran, so their spills for any re-homed
	// partition died with the old owner: re-shuffle exactly those
	// partitions from exactly those maps before reducing. (The maps that
	// did re-run this generation already pushed to the new owners.)
	if len(deadParts) > 0 {
		if err := d.reshuffle(st, journaled, deadParts); err != nil {
			return Result{}, err
		}
	}
	// Emitted before the phase is journaled: every map has pushed its
	// spills, no reduce has run, and the journal still says "map".
	d.events.Emit(events.KindJob, "job.phase.reduce", events.F{Job: spec.ID})
	if st.jw != nil && (prior == nil || prior.Phase == phaseMap) {
		st.jw.setPhase(phaseReduce, &mk)
	}

	if err := d.runReducePhase(ctx, st); err != nil {
		return Result{}, err
	}
	if st.jw != nil {
		st.jw.setPhase(phaseDone, &mk)
	}
	res.Elapsed = time.Since(began)
	d.reg.Histogram("mr.driver.job_ns").ObserveDuration(res.Elapsed)
	return res, nil
}

// expandMapTasks expands the job's input files into one pending task per
// block, at the generation's first attempt.
func (d *Driver) expandMapTasks(st *runState) error {
	st.byID = make(map[string]*mapTask)
	for _, input := range st.spec.Inputs {
		meta, err := d.fs.Lookup(st.ctx, input, st.spec.User)
		if err != nil {
			return fmt.Errorf("mapreduce: input %q: %w", input, err)
		}
		for i, bk := range meta.BlockKeys {
			mt := &mapTask{
				t:       scheduler.Task{Job: st.spec.ID, ID: fmt.Sprintf("%s/m/%s/%d", st.spec.ID, input, i), HashKey: bk},
				attempt: st.attemptBase,
				sum:     meta.BlockSums[i],
			}
			st.tasks = append(st.tasks, mt)
			st.byID[mt.t.ID] = mt
		}
	}
	return nil
}

// runMapPhase opens a map phase over tasks (all pending), registers the
// job with the dispatcher, submits the tasks, and waits for the phase's
// outcome. A non-empty only makes the phase a filtered re-shuffle.
func (d *Driver) runMapPhase(st *runState, tasks []*mapTask, only []int) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errors.New("mapreduce: driver closed")
	}
	if _, dup := d.jobs[st.spec.ID]; dup {
		d.mu.Unlock()
		return fmt.Errorf("mapreduce: job %s is already running", st.spec.ID)
	}
	st.open, st.only, st.remaining = true, only, len(tasks)
	st.outcome = make(chan error, 1)
	d.jobs[st.spec.ID] = st
	if !d.started {
		d.started = true
		go d.dispatchLoop()
	}
	if st.spec.speculative() && !d.specOn {
		// The straggler scanner starts with the first speculative job and
		// lives until the driver closes.
		d.specOn = true
		go d.speculationLoop()
	}
	d.mu.Unlock()

	// Cancellation aborts the phase between dispatches; a later Resume
	// re-runs exactly what had not finished by then.
	stopWatch := context.AfterFunc(st.ctx, func() { d.endMapPhase(st, st.ctx.Err()) })
	defer stopWatch()

	now := d.since()
	for _, mt := range tasks {
		d.events.Emit(events.KindSched, "sched.admit", events.F{Job: mt.t.Job, Task: mt.t.ID})
		d.sched.Submit(mt.t, now)
	}
	d.signal()
	err := <-st.outcome

	d.mu.Lock()
	delete(d.jobs, st.spec.ID)
	d.mu.Unlock()
	return err
}

// endMapPhase ends a job's map phase with err, unless it already ended.
func (d *Driver) endMapPhase(st *runState, err error) {
	d.mu.Lock()
	st.end(err)
	d.mu.Unlock()
}

// signal nudges the dispatcher without blocking.
func (d *Driver) signal() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// dispatchLoop is the single goroutine that pumps the scheduling policy:
// it pulls ready assignments, routes each to its job, and wakes for
// delay-scheduler deadlines. It runs for the driver's lifetime.
func (d *Driver) dispatchLoop() {
	for {
		d.mu.Lock()
		closed := d.closed
		d.mu.Unlock()
		if closed {
			return
		}

		for _, a := range d.sched.Dispatch(d.since()) {
			d.mu.Lock()
			st := d.jobs[a.Task.Job]
			d.mu.Unlock()
			var mt *mapTask
			if st != nil {
				mt = st.byID[a.Task.ID]
			}
			if mt == nil {
				// The job failed and deregistered while this task sat in
				// the queue; give the slot back.
				d.sched.Release(a.Node)
				continue
			}
			go d.runMapTask(st, mt, a)
		}

		var timerC <-chan time.Time
		var timer *time.Timer
		if dl, ok := d.sched.NextDeadline(); ok {
			if wait := dl - d.since(); wait > 0 {
				timer = time.NewTimer(wait)
				timerC = timer.C
			} else {
				// Deadline already passed: take another dispatch pass.
				continue
			}
		}
		select {
		case <-d.wake:
		case <-timerC:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// mapReq builds the RunMapReq for one execution of a map task. Caller
// holds d.mu (the phase's partition filter is phase state).
func (st *runState) mapReq(mt *mapTask, attempt int) *RunMapReq {
	return &RunMapReq{
		Job:            st.spec.ID,
		Namespace:      st.ns,
		App:            st.spec.App,
		Params:         st.spec.Params,
		BlockKey:       mt.t.HashKey,
		BlockSum:       mt.sum,
		Task:           mt.t.ID,
		Attempt:        attempt,
		ReduceServers:  st.mk.Servers,
		ReduceBounds:   st.mk.Bounds,
		ReduceReplicas: st.mk.Replicas,
		OnlyPartitions: st.only,
		SpillThreshold: st.spec.SpillThreshold,
		TTL:            st.spec.IntermediateTTL,
	}
}

// mapResult reports one execution of a map task back to the path that
// launched it.
type mapResult struct {
	verdict verdict
	attempt int
	// evict and err describe a failed execution (see runState.fail).
	evict bool
	err   error
}

// execMap runs one execution of a map task on x.node — the only place
// the driver calls MethodRunMap — and settles it: a success is offered to
// finish (first finisher wins), a failed dispatched or failover execution
// to fail, a failed hedge is dropped. The execution runs under its own
// cancellable ctx, registered with the task, so whichever duplicate wins
// aborts the other's RPC instead of letting it run to completion against
// a straggling node.
func (d *Driver) execMap(st *runState, mt *mapTask, x mapExec) mapResult {
	actx, cancel := context.WithCancel(st.ctx)
	defer cancel()
	d.mu.Lock()
	attempt, ok := st.begin(mt, x, cancel, time.Now())
	var req *RunMapReq
	if ok {
		req = st.mapReq(mt, attempt)
	}
	d.mu.Unlock()
	if !ok {
		return mapResult{}
	}
	// The queue wait is only known at dispatch; reconstruct it as a span
	// ending now so the timeline shows time-in-scheduler per task.
	if x.waited > 0 {
		_, qs := d.tracer.StartSpanAt(st.ctx, "sched.queue_wait", d.tracer.NowNS()-int64(x.waited))
		qs.Annotate("task", mt.t.ID)
		qs.End()
	}
	tctx, sp := d.tracer.StartSpan(actx, "driver.map_task")
	defer sp.End()
	sp.Annotate("task", mt.t.ID)
	sp.Annotate("node", string(x.node))
	ev := events.F{Job: st.spec.ID, Task: mt.t.ID, Attempt: attempt, Detail: string(x.node)}
	switch x.kind {
	case execDispatch:
		sp.Annotate("local", strconv.FormatBool(x.local))
		d.events.Emit(events.KindTask, "map.dispatch", ev)
	case execFailover:
		sp.Annotate("failover", "true")
		sp.Annotate("attempt", strconv.Itoa(attempt))
		d.events.Emit(events.KindTask, "map.failover", ev)
	case execHedge:
		// Same attempt as the execution it duplicates, on purpose (see
		// speculate.go).
		sp.Annotate("speculative", "true")
		sp.Annotate("attempt", strconv.Itoa(attempt))
		d.reg.Counter("mr.driver.speculative_launched").Inc()
		d.events.Emit(events.KindSpec, "spec.launch", ev)
	}
	var resp RunMapResp
	rpcTimer := d.reg.Histogram("mr.driver.map_rpc_ns").Start()
	err := d.call(tctx, x.node, MethodRunMap, req, &resp)
	rpcTimer.Stop()

	r := mapResult{verdict: lost, attempt: attempt, err: err}
	d.mu.Lock()
	switch {
	case err == nil:
		if d.finishMap(st, mt, attempt, resp) {
			r.verdict = won
		}
	case x.kind != execHedge:
		r.verdict, r.evict = st.fail(mt, attempt, err)
	}
	d.mu.Unlock()
	switch {
	case err != nil:
		sp.Annotate("error", err.Error())
	case resp.CacheHit:
		sp.Annotate("cache", "hit")
	default:
		sp.Annotate("cache", "miss")
	}
	if x.kind == execHedge && err == nil {
		if r.verdict == won {
			sp.Annotate("speculation", "won")
		} else {
			sp.Annotate("speculation", "lost")
		}
	}
	return r
}

// finishMap settles a successful execution. The first finisher of the
// task's current attempt is accounted — result counters, and for a first
// execution (not a re-shuffle) the partition sizes and the journal — and
// only then finishes the task: a phase's outcome is delivered after its
// last completion is queued for the journal. Caller holds d.mu.
func (d *Driver) finishMap(st *runState, mt *mapTask, attempt int, resp RunMapResp) bool {
	if !st.current(mt, attempt) {
		return false
	}
	st.res.ShuffleBytes += sum(resp.PartBytes)
	if resp.CacheHit {
		st.res.CacheHits++
	} else {
		st.res.CacheMisses++
	}
	if len(st.only) == 0 {
		for i, b := range resp.PartBytes {
			st.mk.PartBytes[i] += b
		}
		if st.jw != nil {
			taskID := mt.t.ID
			partBytes := append([]int64(nil), st.mk.PartBytes...)
			st.jw.update(func(jr *journal) {
				jr.MapsDone[taskID] = true
				if jr.Attempts[taskID] < attempt {
					jr.Attempts[taskID] = attempt
				}
				jr.Mk.PartBytes = partBytes
			})
		}
	}
	d.events.Emit(events.KindTask, "map.finish", events.F{
		Job: st.spec.ID, Task: mt.t.ID, Attempt: attempt,
	})
	return st.finish(mt, attempt)
}

// runMapTask executes one scheduler assignment and acts on its verdict.
func (d *Driver) runMapTask(st *runState, mt *mapTask, a scheduler.Assignment) {
	r := d.execMap(st, mt, mapExec{kind: execDispatch, node: a.Node, local: a.Local, waited: a.Waited})
	if r.evict {
		d.sched.RemoveNode(a.Node)
	} else {
		d.sched.Release(a.Node)
	}
	switch r.verdict {
	case retry:
		d.reg.Counter("mr.driver.map_retries").Inc()
		d.events.Emit(events.KindTask, "map.retry", events.F{
			Job: st.spec.ID, Task: mt.t.ID, Attempt: r.attempt, Detail: r.err.Error(),
		})
		d.sched.Submit(mt.t, d.since())
	case failover:
		d.reg.Counter("mr.driver.map_failovers").Inc()
		d.events.Emit(events.KindTask, "map.giveup", events.F{
			Job: st.spec.ID, Task: mt.t.ID, Attempt: r.attempt, Detail: r.err.Error(),
		})
		d.failoverMap(st, mt, a.Node, r.err)
	}
	d.signal()
}

// replicasExcept lists the replica set of a task's input block without
// one node.
func (d *Driver) replicasExcept(mt *mapTask, not hashing.NodeID) []hashing.NodeID {
	set, _ := d.ring().ReplicaSet(mt.t.HashKey, 3)
	out := make([]hashing.NodeID, 0, len(set))
	for _, n := range set {
		if n != not {
			out = append(out, n)
		}
	}
	return out
}

// failoverMap walks a map task directly (off the scheduler) over the
// members of its hash key's replica set, excluding the node that just
// failed it. The phase fails only when every candidate has failed too.
func (d *Driver) failoverMap(st *runState, mt *mapTask, exclude hashing.NodeID, lastErr error) {
	for _, cand := range d.replicasExcept(mt, exclude) {
		r := d.execMap(st, mt, mapExec{kind: execFailover, node: cand})
		if r.verdict != failover {
			return // done here or elsewhere, or the phase is over
		}
		lastErr = r.err
	}
	d.endMapPhase(st, fmt.Errorf("mapreduce: task %s failed (failover exhausted), last error: %w",
		mt.t.ID, lastErr))
}

// Close stops the dispatcher goroutine. Intended for process shutdown;
// jobs still in flight fail their map phases.
func (d *Driver) Close() {
	d.mu.Lock()
	d.closed = true
	for _, st := range d.jobs {
		st.end(errors.New("mapreduce: driver closed"))
	}
	d.mu.Unlock()
	d.signal()
}

// reduceTask describes one partition's reduce execution target.
type reduceTask struct {
	part    int
	owner   hashing.NodeID
	replica hashing.NodeID
}

// errPartitionLost marks a reduce partition whose segment holders are all
// unreachable — the trigger for lost-partition recovery.
type errPartitionLost struct {
	part  int
	owner hashing.NodeID
	cause error
}

func (e errPartitionLost) Error() string {
	return fmt.Sprintf("mapreduce: reduce partition %d lost with node %s: %v", e.part, e.owner, e.cause)
}

func (e errPartitionLost) Unwrap() error { return e.cause }

// lostPart pairs a lost partition with its terminal error.
type lostPart struct {
	t   reduceTask
	err error
}

// runReducePhase schedules one reduce task per non-empty partition,
// directly at the node storing the partition's segments (the paper's
// reduce placement: "the scheduler schedules reduce tasks where the
// intermediate results are stored"). Partitions the journal records as
// done are skipped; partitions whose segment holders all died are
// recovered by re-executing the contributing maps and re-homing the
// partition on a surviving node. Per-node concurrency is bounded by
// reduceSlots.
func (d *Driver) runReducePhase(ctx context.Context, st *runState) error {
	var tasks []reduceTask
	skipped := 0
	for part, bytes := range st.mk.PartBytes {
		if bytes <= 0 {
			continue
		}
		if out, ok := st.partsDone[part]; ok {
			// Completed under a previous driver generation: keep its
			// output, skip the re-reduce.
			if out != "" {
				st.res.OutputFiles = append(st.res.OutputFiles, out)
			}
			skipped++
			continue
		}
		t := reduceTask{part: part, owner: st.mk.Servers[part]}
		if part < len(st.mk.Replicas) {
			t.replica = st.mk.Replicas[part]
		}
		tasks = append(tasks, t)
	}
	if skipped > 0 {
		d.reg.Counter("mr.driver.parts_skipped_resume").Add(int64(skipped))
	}
	st.res.ReduceTasks = len(tasks)
	if len(tasks) == 0 {
		sort.Strings(st.res.OutputFiles)
		return nil
	}
	lost, err := d.reduceWave(ctx, st, tasks)
	if err != nil {
		return err
	}
	for round := 0; len(lost) > 0; round++ {
		if round >= st.spec.maxAttempts() {
			return fmt.Errorf("mapreduce: partition recovery exhausted after %d rounds: %w", round, lost[0].err)
		}
		retry, err := d.recoverPartitions(ctx, st, lost)
		if err != nil {
			return err
		}
		lost, err = d.reduceWave(ctx, st, retry)
		if err != nil {
			return err
		}
	}
	// Completion order is scheduling-dependent; sort (lexicographic =
	// partition order under the fixed-width partition naming) so results
	// are deterministic run to run.
	sort.Strings(st.res.OutputFiles)
	return nil
}

// reduceWave runs one wave of reduce tasks, journaling each completed
// partition, and returns the partitions whose segment holders were all
// unreachable (sorted by partition for deterministic recovery order).
func (d *Driver) reduceWave(ctx context.Context, st *runState, tasks []reduceTask) ([]lostPart, error) {
	sem := make(map[hashing.NodeID]chan struct{})
	for _, t := range tasks {
		if _, ok := sem[t.owner]; !ok {
			sem[t.owner] = make(chan struct{}, d.reduceSlots)
		}
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		lost     []lostPart
	)
	for _, t := range tasks {
		wg.Add(1)
		go func(t reduceTask) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			sem[t.owner] <- struct{}{}
			defer func() { <-sem[t.owner] }()
			resp, outFile, ran, err := d.runReduceTask(ctx, st, t)
			if err != nil {
				var lp errPartitionLost
				mu.Lock()
				defer mu.Unlock()
				if errors.As(err, &lp) {
					lost = append(lost, lostPart{t: t, err: err})
				} else if firstErr == nil {
					firstErr = err
				}
				return
			}
			record := ""
			if resp.HasOutput {
				record = outFile
			}
			if st.jw != nil {
				// Synchronous: a resumed driver must never re-reduce a
				// completed partition, so completion outlives this driver
				// before the job proceeds.
				st.jw.updateSync(func(j *journal) { j.PartsDone[t.part] = record })
			}
			mu.Lock()
			st.partsDone[t.part] = record
			if resp.HasOutput {
				st.res.OutputFiles = append(st.res.OutputFiles, outFile)
			}
			if resp.InputCached {
				st.res.CacheHits++
			}
			mu.Unlock()
			d.events.Emit(events.KindTask, "reduce.finish", events.F{
				Job: st.spec.ID, Task: partitionName(t.part), Detail: string(ran),
			})
		}(t)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].t.part < lost[j].t.part })
	return lost, nil
}

// runReduceTask executes one partition's reduce, walking the candidate
// executors (satellite of the self-healing layer: the full surviving
// replica set, not just the single recorded replica) before declaring
// the partition lost. It returns the response, the output file name and
// the node that ran the reduce.
func (d *Driver) runReduceTask(ctx context.Context, st *runState, t reduceTask) (RunReduceResp, string, hashing.NodeID, error) {
	outFile := fmt.Sprintf("%s.out.%s", st.spec.ID, partitionName(t.part))
	req := RunReduceReq{
		Job:                st.spec.ID,
		Namespace:          st.ns,
		App:                st.spec.App,
		Params:             st.spec.Params,
		Partition:          t.part,
		SegmentHolders:     []hashing.NodeID{t.owner},
		OutputFile:         outFile,
		CacheIntermediates: st.spec.CacheIntermediates,
		CacheOutputs:       st.spec.CacheOutputs,
		Epoch:              st.reduceEpoch,
		TTL:                st.spec.IntermediateTTL,
		User:               st.spec.User,
	}
	if t.replica != "" {
		req.SegmentHolders = append(req.SegmentHolders, t.replica)
	}
	tctx, sp := d.tracer.StartSpan(ctx, "driver.reduce_task")
	sp.Annotate("partition", strconv.Itoa(t.part))
	sp.Annotate("node", string(t.owner))
	defer sp.End()
	var lastErr error
	for i, cand := range d.reduceCandidates(st, t) {
		if i > 0 {
			// Walking past the recorded owner is a failover, whether to
			// the recorded replica or further around the ring.
			d.reg.Counter("mr.driver.reduce_failovers").Inc()
			sp.Annotate("failover", string(cand))
			d.events.Emit(events.KindTask, "reduce.failover", events.F{
				Job: st.spec.ID, Task: partitionName(t.part), Detail: string(cand),
			})
		} else {
			d.events.Emit(events.KindTask, "reduce.dispatch", events.F{
				Job: st.spec.ID, Task: partitionName(t.part), Detail: string(cand),
			})
		}
		var resp RunReduceResp
		rpcTimer := d.reg.Histogram("mr.driver.reduce_rpc_ns").Start()
		err := d.call(tctx, cand, MethodRunReduce, &req, &resp)
		rpcTimer.Stop()
		if err == nil {
			d.reg.Counter("mr.driver.partition_reduces").Inc()
			return resp, outFile, cand, nil
		}
		if i == 0 && !errors.Is(err, transport.ErrUnreachable) && !transport.IsTransient(err) {
			// The owner executed the reduce and failed: an application
			// error, not a lost partition.
			sp.Annotate("error", err.Error())
			return RunReduceResp{}, "", "", err
		}
		lastErr = err
	}
	sp.Annotate("error", "partition lost")
	return RunReduceResp{}, "", "", errPartitionLost{part: t.part, owner: t.owner, cause: lastErr}
}

// reduceCandidates orders the nodes that may be able to execute a
// partition's reduce: the recorded segment owner first, then the
// recorded intermediate replica, then the surviving members of the
// partition bound's current ring replica set. Any of the latter gather
// the segments remotely, which also recovers asymmetric partitions where
// the owner is unreachable from the driver but not from a peer.
func (d *Driver) reduceCandidates(st *runState, t reduceTask) []hashing.NodeID {
	out := []hashing.NodeID{t.owner}
	seen := map[hashing.NodeID]bool{t.owner: true}
	if t.replica != "" && !seen[t.replica] {
		out = append(out, t.replica)
		seen[t.replica] = true
	}
	if t.part < len(st.mk.Bounds) {
		if set, err := d.ring().ReplicaSet(st.mk.Bounds[t.part], 3); err == nil {
			for _, c := range set {
				if !seen[c] {
					out = append(out, c)
					seen[c] = true
				}
			}
		}
	}
	return out
}

// recoverPartitions is in-run lost-partition recovery, the heart of the
// self-healing layer: each lost partition is re-homed to a surviving ring
// node, every contributing map is re-shuffled into just the lost
// partitions (surviving partitions keep their segments untouched), and
// the returned tasks re-run the reduces at the new owners.
func (d *Driver) recoverPartitions(ctx context.Context, st *runState, lost []lostPart) ([]reduceTask, error) {
	_, sp := d.tracer.StartSpan(ctx, "driver.partition_recovery")
	defer sp.End()
	ring := d.ring()
	var retry []reduceTask
	var only []int
	for _, l := range lost {
		t, err := d.rehome(st, sp, ring, l.t.part)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", err, l.err)
		}
		retry = append(retry, t)
		only = append(only, l.t.part)
	}
	d.commitRehome(st, len(lost))
	// The recovery maps push strictly higher attempts: invalidate every
	// merged-intermediate cache entry by moving the reduces to a new
	// epoch key.
	st.reduceEpoch++
	if err := d.reshuffle(st, st.tasks, only); err != nil {
		return nil, err
	}
	return retry, nil
}

// adoptPartitions repairs an adopted job's partition table against the
// current ring before any task runs: partitions whose journaled owner left
// the ring are promoted to their intermediate replica when one is alive
// (the replica holds full spill copies), or re-homed otherwise. Re-homed
// partitions lost their data with the owner and are returned for a
// re-shuffle.
func (d *Driver) adoptPartitions(st *runState) ([]int, error) {
	ring := d.ring()
	live := make(map[hashing.NodeID]bool)
	for _, id := range ring.Members() {
		live[id] = true
	}
	_, sp := d.tracer.StartSpan(st.ctx, "driver.partition_rehome")
	defer sp.End()
	var dead []int
	changed := false
	for p, owner := range st.mk.Servers {
		if live[owner] {
			continue
		}
		if _, done := st.partsDone[p]; done {
			continue // output already stored and replicated in the FS
		}
		changed = true
		if p < len(st.mk.Replicas) && live[st.mk.Replicas[p]] {
			// The replica holds a full copy of every pushed spill: promote
			// it and grow a fresh replica behind it.
			replica := st.mk.Replicas[p]
			st.mk.Servers[p] = replica
			var next hashing.NodeID
			if succ, err := ring.Successor(replica); err == nil && succ != replica {
				next = succ
			}
			st.mk.Replicas[p] = next
			sp.Annotate(partitionName(p), "promoted "+string(replica))
			d.events.Emit(events.KindTask, "partition.rehome", events.F{
				Job: st.spec.ID, Task: partitionName(p), Detail: "promoted " + string(replica),
			})
			continue
		}
		if _, err := d.rehome(st, sp, ring, p); err != nil {
			return nil, err
		}
		dead = append(dead, p)
	}
	if changed {
		d.commitRehome(st, len(dead))
	}
	return dead, nil
}

// rehome moves a reduce partition whose spills died with their holders to
// a surviving member of its bound's replica set that is neither the old
// owner nor the old replica (both may still sit in the ring, unreachable),
// and grows a fresh replica behind it when the job replicates. It refuses
// when the spills cannot be rebuilt, before anything is recorded.
func (d *Driver) rehome(st *runState, sp *trace.Span, ring *hashing.ChordRing, part int) (reduceTask, error) {
	if len(st.tasks) == 0 {
		return reduceTask{}, fmt.Errorf("mapreduce: cannot recover reduce partition %d of job %s: map tasks are not re-executable (tag-reused intermediates)", part, st.spec.ID)
	}
	owner := st.mk.Servers[part]
	var replica hashing.NodeID
	if part < len(st.mk.Replicas) {
		replica = st.mk.Replicas[part]
	}
	t := reduceTask{part: part}
	if part < len(st.mk.Bounds) {
		if set, err := ring.ReplicaSet(st.mk.Bounds[part], 3); err == nil {
			for _, c := range set {
				if c != owner && c != replica {
					t.owner = c
					break
				}
			}
		}
	}
	if t.owner == "" {
		return reduceTask{}, fmt.Errorf("mapreduce: no surviving node can adopt reduce partition %d of job %s", part, st.spec.ID)
	}
	d.reg.Counter("mr.driver.partition_recoveries").Inc()
	st.res.RecoveredPartitions++
	sp.Annotate(partitionName(part), "re-homed "+string(t.owner))
	d.events.Emit(events.KindTask, "partition.rehome", events.F{
		Job: st.spec.ID, Task: partitionName(part), Detail: string(t.owner),
	})
	st.mk.Servers[part] = t.owner
	if len(st.mk.Replicas) > 0 {
		if succ, err := ring.Successor(t.owner); err == nil && succ != t.owner && succ != owner {
			t.replica = succ
		}
		st.mk.Replicas[part] = t.replica
	}
	return t, nil
}

// commitRehome announces a repaired partition table and makes it durable
// before any spill is pushed at it, so a resume after a further failure
// runs against the adopted owners.
func (d *Driver) commitRehome(st *runState, rehomed int) {
	if rehomed > 0 {
		d.events.Emit(events.KindJob, "job.recovery", events.F{
			Job: st.spec.ID, Detail: fmt.Sprintf("partitions=%d", rehomed),
		})
		d.recordFlight(st.spec.ID, "recovery")
	}
	if st.jw != nil {
		snap := copyMarker(st.mk)
		st.jw.updateSync(func(j *journal) { j.Mk = snap })
	}
}

// reshuffle re-executes settled map tasks through the scheduler with a
// partition filter, restoring exactly the re-homed partitions' spills at
// their new owners. Every task runs one attempt above anything it has
// pushed (including prior driver generations, by the attempt stride), so
// the store's attempt dedup discards whatever a dying pusher may still
// deliver.
func (d *Driver) reshuffle(st *runState, tasks []*mapTask, only []int) error {
	if len(tasks) == 0 {
		return nil
	}
	d.mu.Lock()
	for _, mt := range tasks {
		mt.rearm()
	}
	d.mu.Unlock()
	if err := d.runMapPhase(st, tasks, only); err != nil {
		return fmt.Errorf("mapreduce: lost-partition re-shuffle: %w", err)
	}
	return nil
}

// call invokes a worker method over the network (the driver node is
// itself a listening worker, so self-calls take the same path).
func (d *Driver) call(ctx context.Context, to hashing.NodeID, method string, req, resp transport.Wire) error {
	body, err := transport.Encode(req)
	if err != nil {
		return err
	}
	out, err := d.net.Call(ctx, to, method, body)
	if err != nil {
		return err
	}
	return transport.Decode(out, resp)
}

// Collect reads and decodes every output file of a completed job,
// returning the merged key-value pairs (sorted within each partition;
// partitions concatenated in partition order).
func (d *Driver) Collect(ctx context.Context, res Result, user string) ([]KV, error) {
	// Every file is read and counted first, so that the job's pairs are
	// decoded into one slice made at its final size.
	files := make([][]byte, len(res.OutputFiles))
	sizes := make([]kvSize, len(res.OutputFiles))
	pairs := 0
	for i, f := range res.OutputFiles {
		data, err := d.fs.ReadFile(ctx, f, user)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: collect %q: %w", f, err)
		}
		if sizes[i], err = sizeKVs(data); err != nil {
			return nil, fmt.Errorf("mapreduce: collect %q: %w", f, err)
		}
		files[i] = data
		pairs += sizes[i].pairs
	}
	if pairs == 0 {
		return nil, nil
	}
	out := make([]KV, 0, pairs)
	for i, data := range files {
		out = appendKVs(out, data, sizes[i])
		files[i] = nil // decoded: the file's bytes can go
	}
	return out, nil
}

// DropIntermediates removes a namespace's segments cluster-wide, along
// with the job's journal done-record.
func (d *Driver) DropIntermediates(ctx context.Context, spec JobSpec) {
	d.fs.DropJob(ctx, spec.Namespace())
	if !spec.DisableJournal {
		if err := d.fs.Delete(ctx, journalFile(spec.ID), spec.User); err != nil {
			// Best effort, like the segment sweep; the counter keeps a
			// stuck journal observable.
			d.reg.Counter("mr.driver.journal_errors").Inc()
		}
	}
}

func sum(xs []int64) int64 {
	var total int64
	for _, x := range xs {
		total += x
	}
	return total
}
