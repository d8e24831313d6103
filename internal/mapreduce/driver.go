package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
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
// partition filter, and a failed map task is retried and then re-executed
// on a replica of its input block.
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
	}
	// Pre-created so every metrics snapshot shows the retry, failover,
	// recovery and journal counters, even at zero.
	for _, name := range []string{
		"mr.driver.map_retries",
		"mr.driver.map_failovers",
		"mr.driver.reduce_failovers",
		"mr.driver.partition_recoveries",
		"mr.driver.partition_reduces",
		"mr.driver.parts_skipped_resume",
		"mr.driver.journal_resumes",
		"mr.driver.journal_errors",
	} {
		d.reg.Counter(name)
	}
	return d, nil
}

// Metrics exposes the driver's retry, failover, recovery and journal
// counters.
func (d *Driver) Metrics() *metrics.Registry { return d.reg }

// SetTracer wires the node's tracer into the driver. Call before
// submitting jobs; a nil tracer (the default) disables driver spans.
func (d *Driver) SetTracer(tr *trace.Tracer) { d.tracer = tr }

// SetEvents wires the manager node's structured event log into the
// driver so job, task and journal transitions land in the
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

// marker is a job's partition table, which its journal records. A tagged
// job publishes its table as the tag's marker file: a later job of the
// same signature reduces the namespace it names instead of running its
// maps (§II-C).
type marker struct {
	Servers   []hashing.NodeID
	Bounds    []hashing.Key
	PartBytes []int64
	// Partitioner is the partitionerID of the binary whose maps filled the
	// table's partitions.
	Partitioner int
	// Namespace holds the spills: the job's own, or the one it reuses.
	Namespace string
	// Sig signs the maps that filled Namespace (see expandMapTasks).
	Sig hashing.Digest
}

// partitionerID names how this binary's map tasks place an intermediate
// key in the reduce table: 1 is hashing.ShuffleKey; 0 was
// hashing.KeyOfString (SHA-1). Which partition holds a key is
// part of what stored spills mean: maps run under one id and maps run
// under another may not feed the same reduce, or a key's values end up
// in two partitions. Change the emitters' placement, change the id.
const partitionerID = 1

// markerFile names the marker a reuse tag publishes.
func markerFile(tag string) string { return "_mr/tag:" + tag + "/done" }

// readMarker reads the marker spec's tag publishes. A tag with none, or
// one out of reach, reads as the zero marker, which names no namespace.
func (d *Driver) readMarker(ctx context.Context, spec JobSpec) (marker, error) {
	var mk marker
	if data, err := d.fs.ReadFile(ctx, markerFile(spec.ReuseTag), spec.User); err == nil {
		if err := mk.ParseWire(data); err != nil {
			return marker{}, fmt.Errorf("mapreduce: corrupt reuse marker of tag %q: %w", spec.ReuseTag, err)
		}
	}
	return mk, nil
}

// errReuseLost ends a run over a published namespace it could not keep:
// the marker named another after the reduce phase, or a partition was lost.
var errReuseLost = errors.New("mapreduce: the reused namespace was superseded or lost a partition")

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
	mk   *marker
	res  *Result
	jw   *journalWriter // nil with DisableJournal
	// attemptBase is this driver generation's first attempt number
	// (resumed runs start a fresh stride above every prior generation).
	attemptBase int
	// tasks lists every contributing map task in input order, byID
	// indexes them for the dispatcher.
	tasks []*mapTask
	byID  map[string]*mapTask
	// partsDone maps finished partitions to their recorded output file
	// ("" = no output).
	partsDone map[int]string
	// lost marks the partitions a map of this run could not push to (its
	// RunMapResp.Lost) and that no recovery has re-homed since: they are
	// re-homed and re-shuffled before they are reduced. Guarded by d.mu.
	lost map[int]bool

	// The map phase, valid while open. only, when non-empty, makes it a
	// re-shuffle: the tasks push just the listed reduce partitions, which
	// mk.PartBytes already counts and whose tasks the journal already
	// lists, so completions touch neither. remaining counts unfinished
	// tasks; outcome (buffered, 1) receives the result through end; maps
	// paces the journal flushes of the phase's completions.
	open      bool
	only      []int
	remaining int
	outcome   chan error
	maps      pace
}

// reused reports whether the run reduces a namespace other jobs' maps
// filled: one it neither writes nor drops.
func (st *runState) reused() bool { return st.mk.Namespace != st.spec.Namespace() }

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
			res := Result{Job: spec.ID, Resumed: true, MapsSkipped: true}
			for _, f := range prior.PartsDone {
				if f != "" {
					res.OutputFiles = append(res.OutputFiles, f)
				}
			}
			sort.Strings(res.OutputFiles)
			res.Elapsed = time.Since(began)
			return res, nil
		}
		root.Annotate("resume", prior.Phase)
		d.reg.Counter("mr.driver.journal_resumes").Inc()
		d.events.Emit(events.KindJournal, "journal.resume", events.F{Job: spec.ID, Detail: prior.Phase})
		if prior.Mk.Partitioner != partitionerID {
			// Nothing the journal lists as done can be kept: drop the
			// job's stored spills and adopt the job (its table, and its
			// generation, so the new attempts outrank whatever a node that
			// missed the drop still holds) at the start of its map phase,
			// in its own namespace.
			d.events.Emit(events.KindJournal, "journal.partitioner_mismatch", events.F{
				Job: spec.ID,
				Detail: fmt.Sprintf("journal written under partitioner %d, this binary is %d: stored intermediates dropped, maps re-run",
					prior.Mk.Partitioner, partitionerID),
			})
			d.fs.DropJob(ctx, spec.Namespace(), spec.User)
			for _, out := range prior.PartsDone {
				if out != "" {
					_ = d.fs.Delete(ctx, out, spec.User) // best effort: a non-empty partition overwrites its file anyway
				}
			}
			prior.Phase, prior.MapsDone, prior.PartsDone = phaseMap, nil, nil
			prior.Mk.PartBytes = make([]int64, len(prior.Mk.Servers))
			prior.Mk.Partitioner, prior.Mk.Namespace = partitionerID, spec.Namespace()
		}
	}

	// A tagged job reads its tag's marker first: a fresh run may reduce the
	// namespace it names, and a run that publishes drops it.
	var pub marker
	if spec.ReuseTag != "" {
		if pub, err = d.readMarker(ctx, spec); err != nil {
			return Result{}, err
		}
	}
	res, err := d.execute(ctx, spec, prior, &pub, prior == nil)
	if errors.Is(err, errReuseLost) {
		// The one fallback: the outputs go, and the job runs afresh.
		d.events.Emit(events.KindJob, "job.reuse_lost", events.F{Job: spec.ID})
		for _, out := range res.OutputFiles {
			_ = d.fs.Delete(ctx, out, spec.User) // best effort: the fresh run writes the outputs it names
		}
		res, err = d.execute(ctx, spec, nil, &pub, false)
	}
	if err != nil {
		return Result{}, err
	}
	res.Resumed = prior != nil
	res.Elapsed = time.Since(began)
	d.reg.Histogram("mr.driver.job_ns").ObserveDuration(res.Elapsed)
	return res, nil
}

// execute runs a job from its journal (prior) or afresh. A fresh run with
// mayReuse reduces the namespace pub names if its signature is pub's. A
// tagged run then re-reads pub (DESIGN.md §7), and one in its own
// namespace publishes it and drops the one pub names. On errReuseLost the
// result lists the outputs written.
func (d *Driver) execute(ctx context.Context, spec JobSpec, prior *journal, pub *marker, mayReuse bool) (Result, error) {
	res := Result{Job: spec.ID}
	var mk marker
	if prior != nil {
		mk = copyMarker(&prior.Mk)
	} else {
		// One equal-width slice of the ShuffleKey space per member, in
		// ring order: ShuffleKey spreads keys evenly, so each partition
		// gets an even share of the pairs, where the ring's own arcs
		// are as uneven as its SHA-1 positions (DESIGN.md §9). An
		// adopted journal or marker keeps the table it was written with.
		table, err := hashing.UniformRangeTable(d.ring().Members())
		if err != nil {
			return Result{}, err
		}
		mk = marker{
			Servers: table.Servers(), Bounds: table.Bounds(), PartBytes: make([]int64, table.Len()),
			Partitioner: partitionerID, Namespace: spec.Namespace(),
		}
	}
	st := &runState{
		ctx:       ctx,
		spec:      spec,
		mk:        &mk,
		res:       &res,
		partsDone: make(map[int]string),
		lost:      make(map[int]bool),
	}
	if prior != nil {
		for part, out := range prior.PartsDone {
			st.partsDone[part] = out
		}
		st.attemptBase = (prior.Generation + 1) * attemptStride
	}
	// Every run expands its maps, looking up (and checking access to) each
	// input: recovery re-executes them, and their digests sign the run.
	sig, err := d.expandMapTasks(st)
	if err != nil {
		return Result{}, err
	}
	if mayReuse && pub.Namespace != "" && pub.Sig == sig {
		mk = copyMarker(pub) // a map phase this job would have run (§II-C)
	}
	mk.Sig = sig
	if !spec.DisableJournal {
		st.jw = d.newJournalWriter(ctx, spec, &mk, prior)
		// The final flush on every exit path leaves even an aborted run
		// adoptable at its latest progress.
		defer st.jw.close(ctx)
	}

	runMaps := !st.reused() && (prior == nil || prior.Phase == phaseMap)
	// todo are the maps this run still owes; journaled are the ones an
	// adopted journal records as done.
	var todo, journaled []*mapTask
	for _, mt := range st.tasks {
		if prior != nil && prior.MapsDone[mt.t.ID] {
			mt.state = taskDone
			journaled = append(journaled, mt)
		} else {
			todo = append(todo, mt)
		}
	}

	// A journal adoption may find partition owners that died with the
	// previous driver (most commonly the old manager itself), and
	// partitions a map could not push to. They are re-homed before any map
	// runs, so the resumed maps push to live owners, and none is reduced
	// before it is re-shuffled.
	var deadParts []int
	if prior != nil {
		if deadParts, err = d.adoptPartitions(st, prior.Lost); err != nil {
			return res, err
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
	} else {
		res.MapsSkipped = true
		if st.reused() {
			trace.Annotate(ctx, "maps", "reused")
		} else {
			trace.Annotate(ctx, "maps", "journaled")
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
	// Emitted before the phase is queued for the journal: every map has
	// pushed its spills, no reduce has run, and the journal still says
	// "map".
	d.events.Emit(events.KindJob, "job.phase.reduce", events.F{Job: spec.ID})
	if st.jw != nil && (prior == nil || prior.Phase == phaseMap) {
		st.jw.setPhase(ctx, phaseReduce, &mk)
	}

	if err := d.runReducePhase(ctx, st); err != nil {
		return res, err
	}
	switch {
	case spec.ReuseTag == "":
	case st.reused():
		// A writer changes the marker, and waits for the acknowledgement,
		// before it drops the namespace the marker named: what the run
		// reduced was whole if the marker still names it.
		if *pub, err = d.readMarker(ctx, spec); err != nil {
			return res, err
		}
		if pub.Namespace != mk.Namespace {
			return res, errReuseLost
		}
	default:
		// Published once recovery is over, so the owners it names hold
		// their whole partitions; then the namespace it supersedes goes.
		// The encoding is handed over to the store, never touched again.
		if _, err := d.fs.Upload(ctx, markerFile(spec.ReuseTag), spec.User, dhtfs.PermPublic, mk.AppendWire(nil), 1<<20); err != nil {
			return Result{}, fmt.Errorf("mapreduce: publish reuse marker: %w", err)
		}
		if pub.Namespace != "" && pub.Namespace != mk.Namespace {
			d.fs.DropJob(ctx, pub.Namespace, spec.User)
		}
	}
	if st.jw != nil {
		st.jw.setPhase(ctx, phaseDone, &mk)
	}
	return res, nil
}

// expandMapTasks expands the job's input files into one pending task per
// block, at the generation's first attempt, and returns the job's
// signature: one digest over its application, its parameters, the spill
// threshold its combiner folds by (other spill boundaries fold other
// floating-point sums), this binary's partitioner and, for each input in
// order, its name and its blocks' digests. Two jobs of one signature push
// the same spills, so one may reduce what the other published.
func (d *Driver) expandMapTasks(st *runState) (hashing.Digest, error) {
	spill := st.spec.SpillThreshold
	if spill <= 0 {
		spill = DefaultSpillThreshold
	}
	sig := appendParams(transport.AppendString(nil, st.spec.App), st.spec.Params)
	sig = appendInt(appendInt(sig, spill), partitionerID)
	st.byID = make(map[string]*mapTask)
	for _, input := range st.spec.Inputs {
		meta, err := d.fs.Lookup(st.ctx, input, st.spec.User)
		if err != nil {
			return hashing.Digest{}, fmt.Errorf("mapreduce: input %q: %w", input, err)
		}
		sig = transport.AppendUvarint(transport.AppendString(sig, input), uint64(len(meta.BlockSums)))
		for i, bk := range meta.BlockKeys {
			sig = append(sig, meta.BlockSums[i][:]...)
			mt := &mapTask{
				t:       scheduler.Task{Job: st.spec.ID, ID: fmt.Sprintf("%s/m/%s/%d", st.spec.ID, input, i), HashKey: bk},
				attempt: st.attemptBase,
				sum:     meta.BlockSums[i],
			}
			st.tasks = append(st.tasks, mt)
			st.byID[mt.t.ID] = mt
		}
	}
	return hashing.BlockDigest(sig), nil
}

// runMapPhase opens a map phase over tasks (all pending), registers the
// job with the dispatcher, submits the tasks, and waits for the phase's
// outcome. A non-empty only makes the phase a filtered re-shuffle.
func (d *Driver) runMapPhase(st *runState, tasks []*mapTask, only []int) error {
	// A wave of maps is every slot the scheduler has, read outside d.mu.
	wave := d.sched.Slots()
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
	st.maps = pace{wave: wave}
	d.jobs[st.spec.ID] = st
	if !d.started {
		d.started = true
		go d.dispatchLoop()
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

	// The phase is over, so nothing re-queues its tasks (see runMapTask):
	// none stays queued for the next phase, or run, of the job.
	d.mu.Lock()
	delete(d.jobs, st.spec.ID)
	d.sched.Withdraw(st.spec.ID)
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
				// the queue; give the slot back, and take another pass; a
				// task this pass found the slot taken for may wait on it.
				d.sched.Release(a.Node)
				d.signal()
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
		Namespace:      st.mk.Namespace,
		App:            st.spec.App,
		Params:         st.spec.Params,
		BlockKey:       mt.t.HashKey,
		BlockSum:       mt.sum,
		Task:           mt.t.ID,
		Attempt:        attempt,
		ReduceServers:  st.mk.Servers,
		ReduceBounds:   st.mk.Bounds,
		OnlyPartitions: st.only,
		SpillThreshold: st.spec.SpillThreshold,
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
// finish, a failure to fail.
func (d *Driver) execMap(st *runState, mt *mapTask, x mapExec) mapResult {
	d.mu.Lock()
	attempt, ok := st.begin(mt)
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
	tctx, sp := d.tracer.StartSpan(st.ctx, "driver.map_task")
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
	}
	var resp RunMapResp
	rpcTimer := d.reg.Histogram("mr.driver.map_rpc_ns").Start()
	err := d.call(tctx, x.node, MethodRunMap, req, &resp)
	rpcTimer.Stop()

	r := mapResult{verdict: lost, attempt: attempt, err: err}
	d.mu.Lock()
	if err != nil {
		r.verdict, r.evict = st.fail(mt, attempt, err)
	} else if d.finishMap(st, mt, attempt, resp) {
		r.verdict = won
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
	return r
}

// finishMap settles a successful execution. The execution of the task's
// current attempt is accounted — result counters, the partitions
// it could not push to, and for a first execution (not a re-shuffle) the
// partition sizes and the journal, flushed once a wave (see pace) — and
// only then finishes the task: a phase's outcome is delivered after its
// last completion is recorded in the journal. A re-shuffle's lost
// partitions need no journal record: recovery listed them as lost before
// the re-shuffle began. Caller holds d.mu.
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
	for _, p := range resp.Lost {
		st.lost[p] = true
	}
	if len(st.only) == 0 {
		for i, b := range resp.PartBytes {
			st.mk.PartBytes[i] += b
		}
		if st.jw != nil {
			taskID := mt.t.ID
			partBytes := append([]int64(nil), st.mk.PartBytes...)
			st.jw.update(st.ctx, func(jr *journal) {
				jr.MapsDone[taskID] = true
				if jr.Attempts[taskID] < attempt {
					jr.Attempts[taskID] = attempt
				}
				jr.Mk.PartBytes = partBytes
				for _, p := range resp.Lost {
					jr.Lost[p] = true
				}
			}, st.maps.due(st.remaining == 1))
		}
	}
	ev := events.F{Job: st.spec.ID, Task: mt.t.ID, Attempt: attempt}
	if len(resp.Lost) > 0 {
		ev.Detail = fmt.Sprintf("lost=%v", resp.Lost)
	}
	d.events.Emit(events.KindTask, "map.finish", ev)
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
		// Under d.mu, so a phase that ends meanwhile withdraws it or is
		// over before it is queued.
		d.mu.Lock()
		if st.open {
			d.sched.Submit(mt.t, d.since())
		}
		d.mu.Unlock()
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

// reduceGroupBytes bounds a reduce task's input when it takes more than
// one partition: consecutive partitions are reduced together while their
// bytes stay under it, and a partition this size or larger is a task of
// its own. Below it a reduce costs less than the output file, its replicas
// and its delete that a task of its own would add (jobs_skewed's grep
// partitions are ~2 KB); above it sits every partition whose reduce is
// worth a node of its own (sort_shuffle's are ~640 KB each).
const reduceGroupBytes = 16 << 10

// reduceGroups cuts a job's partitions into reduce tasks, each a run of
// consecutive partitions in index order, from the journaled partition sizes
// alone, so every driver generation cuts the same tasks. Empty partitions
// are skipped. A partition done already (a resumed run) ends the run it
// interrupts, so a task never spans one, and output files, each named after
// its task's first partition, still sort in partition order.
func reduceGroups(partBytes []int64, done map[int]string) [][]int {
	var groups [][]int
	var cur []int
	var size int64
	cut := func() {
		if len(cur) > 0 {
			groups = append(groups, cur)
		}
		cur, size = nil, 0
	}
	for part, bytes := range partBytes {
		if _, ok := done[part]; ok {
			cut()
			continue
		}
		if bytes <= 0 {
			continue
		}
		if size+bytes >= reduceGroupBytes {
			cut()
		}
		cur, size = append(cur, part), size+bytes
		if size >= reduceGroupBytes {
			cut()
		}
	}
	cut()
	return groups
}

// reduceTask is one reduce execution: a group of partitions (reduceGroups),
// in partition order, each with the node holding its spills. One worker
// reduces them into one output file, named after the first partition. The
// task runs at the owner of its largest partition, parts[lead].
type reduceTask struct {
	parts   []int
	holders []hashing.NodeID
	lead    int
}

// reduceTask builds the task of a group of partitions against the current
// partition table.
func (st *runState) reduceTask(parts []int) reduceTask {
	t := reduceTask{parts: parts}
	for i, p := range parts {
		t.holders = append(t.holders, st.mk.Servers[p])
		if st.mk.PartBytes[p] > st.mk.PartBytes[parts[t.lead]] {
			t.lead = i
		}
	}
	return t
}

// owner is the node the task is dispatched to first: its lead partition's.
func (t reduceTask) owner() hashing.NodeID { return t.holders[t.lead] }

// name lists the task's partitions, as events and spans name it.
func (t reduceTask) name() string { return partitionNames(t.parts) }

// partitionNames joins the labels of parts with commas.
func partitionNames(parts []int) string {
	names := make([]string, len(parts))
	for i, p := range parts {
		names[i] = partitionName(p)
	}
	return strings.Join(names, ",")
}

// errPartitionLost marks a reduce task some of whose partitions' spills
// are out of reach of every candidate executor — the trigger for
// lost-partition recovery of the whole task.
type errPartitionLost struct {
	parts []int
	owner hashing.NodeID
	cause error
}

func (e errPartitionLost) Error() string {
	return fmt.Sprintf("mapreduce: reduce partitions %s lost with node %s: %v", partitionNames(e.parts), e.owner, e.cause)
}

func (e errPartitionLost) Unwrap() error { return e.cause }

// errSpillsLost is the cause of a partition a map reported lost.
var errSpillsLost = fmt.Errorf("a map could not push its spills: %w", transport.ErrUnreachable)

// lostPart pairs a lost reduce task with its terminal error.
type lostPart struct {
	t   reduceTask
	err error
}

// runReducePhase schedules one reduce task per group of non-empty
// partitions (reduceGroups), directly at the node storing the group's
// largest partition (the paper's reduce placement: "the scheduler
// schedules reduce tasks where the intermediate results are stored").
// Partitions the journal records as done are skipped. A task is lost when
// a map could not push to one of its partitions' owners, or when no reduce
// candidate can reach every holder; it is recovered whole, by re-homing
// each of its partitions on a surviving node and re-executing the
// contributing maps, and no reduce runs while a partition a map reported
// lost waits for that. Per-node concurrency is bounded by reduceSlots.
func (d *Driver) runReducePhase(ctx context.Context, st *runState) error {
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
		}
	}
	if skipped > 0 {
		d.reg.Counter("mr.driver.parts_skipped_resume").Add(int64(skipped))
	}
	var tasks []reduceTask
	for _, parts := range reduceGroups(st.mk.PartBytes, st.partsDone) {
		tasks = append(tasks, st.reduceTask(parts))
	}
	st.res.ReduceTasks = len(tasks)
	for round := 0; len(tasks) > 0; round++ {
		// A partition a map reported lost is recovered before any reduce
		// runs; a wave runs once none is left, and may lose more.
		var lost []lostPart
		if tasks, lost = d.takeLost(st, tasks); len(lost) == 0 {
			var err error
			if lost, err = d.reduceWave(ctx, st, tasks); err != nil {
				return err
			}
			tasks = nil
		}
		if len(lost) == 0 {
			continue
		}
		if round >= st.spec.maxAttempts() {
			return fmt.Errorf("mapreduce: partition recovery exhausted after %d rounds: %w", round, lost[0].err)
		}
		retry, err := d.recoverPartitions(ctx, st, lost)
		if err != nil {
			return err
		}
		tasks = append(tasks, retry...)
	}
	// Completion order is scheduling-dependent; sort (lexicographic =
	// partition order under the fixed-width partition naming) so results
	// are deterministic run to run.
	sort.Strings(st.res.OutputFiles)
	return nil
}

// takeLost moves the tasks with a partition maps reported lost out of
// tasks, in task order, and clears their partitions' marks: the recovery
// they go to re-executes every contributing map, so a mark set again
// afterwards is news.
func (d *Driver) takeLost(st *runState, tasks []reduceTask) (rest []reduceTask, lost []lostPart) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range tasks {
		if !slices.ContainsFunc(t.parts, func(p int) bool { return st.lost[p] }) {
			rest = append(rest, t)
			continue
		}
		for _, p := range t.parts {
			delete(st.lost, p)
		}
		lost = append(lost, lostPart{t: t, err: errPartitionLost{parts: t.parts, owner: t.owner(), cause: errSpillsLost}})
	}
	return rest, lost
}

// reduceWave runs one wave of reduce tasks, journaling the partitions of
// each completed one, and returns the tasks whose spills no candidate
// could reach (sorted by first partition for deterministic recovery
// order).
func (d *Driver) reduceWave(ctx context.Context, st *runState, tasks []reduceTask) ([]lostPart, error) {
	sem := make(map[hashing.NodeID]chan struct{})
	for _, t := range tasks {
		if _, ok := sem[t.owner()]; !ok {
			sem[t.owner()] = make(chan struct{}, d.reduceSlots)
		}
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		lost     []lostPart
		// completed counts the wave's finished tasks; the journal flushes
		// them a wave of reduce slots at a time (see pace), and the last
		// one waits for what follows the wave: the done phase, or a
		// recovery's re-homed table.
		completed int
		parts     = pace{wave: len(sem) * d.reduceSlots}
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
			sem[t.owner()] <- struct{}{}
			defer func() { <-sem[t.owner()] }()
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
			// The task's first partition records its output file and the
			// others "": the file holds them all.
			records := make(map[int]string, len(t.parts))
			for _, p := range t.parts {
				records[p] = ""
			}
			if resp.HasOutput {
				records[t.parts[0]] = outFile
			}
			mu.Lock()
			maps.Copy(st.partsDone, records)
			if resp.HasOutput {
				st.res.OutputFiles = append(st.res.OutputFiles, outFile)
			}
			completed++
			if st.jw != nil {
				// Not waited for: the snapshot that carries it also carries
				// the reduce phase and every map completion, and the done
				// phase waits for all of them.
				st.jw.update(ctx, func(j *journal) { maps.Copy(j.PartsDone, records) }, parts.due(completed == len(tasks)))
			}
			mu.Unlock()
			d.events.Emit(events.KindTask, "reduce.finish", events.F{
				Job: st.spec.ID, Task: t.name(), Detail: string(ran),
			})
		}(t)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].t.parts[0] < lost[j].t.parts[0] })
	return lost, nil
}

// runReduceTask executes one reduce task, walking the candidate executors
// (the owner of its lead partition, then the surviving members of that
// partition bound's replica set) before declaring the task lost. A
// candidate that cannot read every partition's holder reports the
// partitions it missed and the walk goes on. It returns the response, the
// output file name and the node that ran the reduce.
func (d *Driver) runReduceTask(ctx context.Context, st *runState, t reduceTask) (RunReduceResp, string, hashing.NodeID, error) {
	outFile := fmt.Sprintf("%s.out.%s", st.spec.ID, partitionName(t.parts[0]))
	req := RunReduceReq{
		Job:        st.spec.ID,
		Namespace:  st.mk.Namespace,
		App:        st.spec.App,
		Params:     st.spec.Params,
		OutputFile: outFile,
		User:       st.spec.User,
	}
	for i, p := range t.parts {
		req.Parts = append(req.Parts, ReducePart{Partition: p, Holder: t.holders[i], Bytes: st.mk.PartBytes[p]})
	}
	tctx, sp := d.tracer.StartSpan(ctx, "driver.reduce_task")
	sp.Annotate("partition", t.name())
	sp.Annotate("node", string(t.owner()))
	defer sp.End()
	var lastErr error
	for i, cand := range d.reduceCandidates(st, t) {
		if i > 0 {
			// Walking past the recorded owner is a failover: a ring
			// neighbour reads the spills remotely.
			d.reg.Counter("mr.driver.reduce_failovers").Inc()
			sp.Annotate("failover", string(cand))
			d.events.Emit(events.KindTask, "reduce.failover", events.F{
				Job: st.spec.ID, Task: t.name(), Detail: string(cand),
			})
		} else {
			d.events.Emit(events.KindTask, "reduce.dispatch", events.F{
				Job: st.spec.ID, Task: t.name(), Detail: string(cand),
			})
		}
		var resp RunReduceResp
		rpcTimer := d.reg.Histogram("mr.driver.reduce_rpc_ns").Start()
		err := d.call(tctx, cand, MethodRunReduce, &req, &resp)
		rpcTimer.Stop()
		if err == nil && len(resp.Unreached) == 0 {
			d.reg.Counter("mr.driver.partition_reduces").Inc()
			return resp, outFile, cand, nil
		}
		if err == nil {
			err = fmt.Errorf("%s could not read the spills of %s", cand, partitionNames(resp.Unreached))
		} else if i == 0 && !errors.Is(err, transport.ErrUnreachable) && !transport.IsTransient(err) {
			// The owner executed the reduce and failed: an application
			// error, not a lost partition.
			sp.Annotate("error", err.Error())
			return RunReduceResp{}, "", "", err
		}
		lastErr = err
	}
	sp.Annotate("error", "partition lost")
	return RunReduceResp{}, "", "", errPartitionLost{parts: t.parts, owner: t.owner(), cause: lastErr}
}

// reduceCandidates orders the nodes that may be able to execute a reduce
// task: the owner of its lead partition first, then the other surviving
// members of that partition bound's current ring replica set. Those gather
// the spills remotely, which also recovers asymmetric partitions where the
// owner is unreachable from the driver but not from a peer.
func (d *Driver) reduceCandidates(st *runState, t reduceTask) []hashing.NodeID {
	out := []hashing.NodeID{t.owner()}
	if lead := t.parts[t.lead]; lead < len(st.mk.Bounds) {
		if set, err := d.ring().ReplicaSet(st.mk.Bounds[lead], 3); err == nil {
			for _, c := range set {
				if c != t.owner() {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// recoverPartitions is in-run lost-partition recovery, the heart of the
// self-healing layer: each partition of each lost task is re-homed to a
// surviving ring node, every contributing map is re-shuffled into just
// those partitions (the partitions of other tasks keep their segments
// untouched), and the returned tasks re-run the lost ones, the same
// partitions each, at the new owners. A fault thus never changes which
// files a job writes.
func (d *Driver) recoverPartitions(ctx context.Context, st *runState, lost []lostPart) ([]reduceTask, error) {
	_, sp := d.tracer.StartSpan(ctx, "driver.partition_recovery")
	defer sp.End()
	ring := d.ring()
	var only []int
	for _, l := range lost {
		for _, p := range l.t.parts {
			if err := d.rehome(st, sp, ring, p); err != nil {
				return nil, fmt.Errorf("%w: %w", err, l.err)
			}
			only = append(only, p)
		}
	}
	d.commitRehome(st, only)
	if err := d.reshuffle(st, st.tasks, only); err != nil {
		return nil, err
	}
	retry := make([]reduceTask, len(lost))
	for i, l := range lost {
		retry[i] = st.reduceTask(l.t.parts)
	}
	return retry, nil
}

// adoptPartitions repairs an adopted job's partition table against the
// current ring before any task runs: a partition whose journaled owner
// left the ring lost its spills with it, and one the journal lists as
// lost may miss some at its owner. Both are re-homed and returned for a
// re-shuffle.
func (d *Driver) adoptPartitions(st *runState, lost map[int]bool) ([]int, error) {
	ring := d.ring()
	live := make(map[hashing.NodeID]bool)
	for _, id := range ring.Members() {
		live[id] = true
	}
	_, sp := d.tracer.StartSpan(st.ctx, "driver.partition_rehome")
	defer sp.End()
	var dead []int
	for p, owner := range st.mk.Servers {
		if live[owner] && !lost[p] {
			continue
		}
		if _, done := st.partsDone[p]; done {
			continue // output already stored and replicated in the FS
		}
		if err := d.rehome(st, sp, ring, p); err != nil {
			return nil, err
		}
		dead = append(dead, p)
	}
	if len(dead) > 0 {
		d.commitRehome(st, dead)
	}
	return dead, nil
}

// rehome moves a reduce partition whose spills are out of reach to the
// first member of its bound's replica set that is not the old owner
// (which may still sit in the ring, unreachable). It refuses when the
// spills cannot be rebuilt, before anything is recorded: a reusing run's
// were pushed by other jobs' maps, into a namespace it does not write.
func (d *Driver) rehome(st *runState, sp *trace.Span, ring *hashing.ChordRing, part int) error {
	if st.reused() {
		return errReuseLost
	}
	old := st.mk.Servers[part]
	var owner hashing.NodeID
	if part < len(st.mk.Bounds) {
		if set, err := ring.ReplicaSet(st.mk.Bounds[part], 3); err == nil {
			for _, c := range set {
				if c != old {
					owner = c
					break
				}
			}
		}
	}
	if owner == "" {
		return fmt.Errorf("mapreduce: no surviving node can adopt reduce partition %d of job %s", part, st.spec.ID)
	}
	d.reg.Counter("mr.driver.partition_recoveries").Inc()
	st.res.RecoveredPartitions++
	sp.Annotate(partitionName(part), "re-homed "+string(owner))
	d.events.Emit(events.KindTask, "partition.rehome", events.F{
		Job: st.spec.ID, Task: partitionName(part), Detail: string(owner),
	})
	st.mk.Servers[part] = owner
	return nil
}

// commitRehome announces the re-homed partitions and makes the repaired
// table durable, with the partitions listed as lost until their
// re-shuffle is over, before any spill is pushed at it: a resume after a
// further failure runs against the adopted owners and re-shuffles them.
func (d *Driver) commitRehome(st *runState, parts []int) {
	d.events.Emit(events.KindJob, "job.recovery", events.F{
		Job: st.spec.ID, Detail: fmt.Sprintf("partitions=%d", len(parts)),
	})
	d.recordFlight(st.spec.ID, "recovery")
	if st.jw != nil {
		snap := copyMarker(st.mk)
		st.jw.updateSync(st.ctx, func(j *journal) {
			j.Mk = snap
			for _, p := range parts {
				j.Lost[p] = true
			}
		})
	}
}

// reshuffle re-executes settled map tasks through the scheduler with a
// partition filter, restoring exactly the re-homed partitions' spills at
// their new owners. Every task runs one attempt above anything it has
// pushed (including prior driver generations, by the attempt stride), so
// the store's attempt dedup discards whatever a dying pusher may still
// deliver. The partitions of only that no map has reported lost since
// are whole again, and the journal stops listing them.
func (d *Driver) reshuffle(st *runState, tasks []*mapTask, only []int) error {
	if len(tasks) > 0 {
		d.mu.Lock()
		for _, mt := range tasks {
			mt.rearm()
		}
		d.mu.Unlock()
		if err := d.runMapPhase(st, tasks, only); err != nil {
			return fmt.Errorf("mapreduce: lost-partition re-shuffle: %w", err)
		}
	}
	if st.jw != nil {
		d.mu.Lock()
		var whole []int
		for _, p := range only {
			if !st.lost[p] {
				whole = append(whole, p)
			}
		}
		d.mu.Unlock()
		st.jw.update(st.ctx, func(j *journal) {
			for _, p := range whole {
				delete(j.Lost, p)
			}
		}, true)
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
// returning the merged key-value pairs (sorted within each file; files in
// partition order).
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

// DropIntermediates removes a job's segments cluster-wide and, in the same
// message to each member, its journal. A tagged spec's marker goes first,
// then the namespace the marker named, as a publisher drops one (see
// settleTag).
func (d *Driver) DropIntermediates(ctx context.Context, spec JobSpec) {
	if spec.ReuseTag != "" {
		pub, _ := d.readMarker(ctx, spec) // a corrupt marker names nothing to drop; it is deleted all the same
		if d.fs.Delete(ctx, markerFile(spec.ReuseTag), spec.User) == nil && pub.Namespace != "" && pub.Namespace != spec.Namespace() {
			d.fs.DropJob(ctx, pub.Namespace, spec.User)
		}
	}
	var files []string
	if !spec.DisableJournal {
		files = append(files, journalFile(spec.ID))
	}
	if deleted := d.fs.DropJob(ctx, spec.Namespace(), spec.User, files...); len(deleted) < len(files) {
		// Best effort, like the segment sweep; the counter keeps a stuck
		// journal observable.
		d.reg.Counter("mr.driver.journal_errors").Inc()
	}
}

func sum(xs []int64) int64 {
	var total int64
	for _, x := range xs {
		total += x
	}
	return total
}
