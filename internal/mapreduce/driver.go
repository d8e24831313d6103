package mapreduce

import (
	"context"
	"crypto/sha1"
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
	ring  func() hashing.Ring
	// reduceSlots bounds concurrent reduce tasks per node.
	reduceSlots int
	start       time.Time
	reg         *metrics.Registry
	tracer      *trace.Tracer
	events      *events.Log
	// flight, when set, is invoked after a job fails or survives a
	// recovery round (see SetFlightRecorder).
	flight func(job, reason string)

	mu   sync.Mutex
	jobs map[string]*activeJob
	// wake nudges the dispatcher; buffered so signalling never blocks.
	wake    chan struct{}
	started bool
	closed  bool

	// Speculative-execution state: tracked in-flight map executions and
	// the lazily started straggler scanner (speculate.go).
	specMu   sync.Mutex
	inflight map[string]*inflightTask
	specOn   bool
	hedgeSem chan struct{}
}

// activeJob is the dispatcher-side state of one running map phase.
type activeJob struct {
	// ctx carries the job's root span; dispatcher goroutines parent their
	// task spans under it.
	//lint:ignore ctxflow activeJob IS the per-call state of one RunContext invocation — the field scopes the job's ctx to the job, not beyond it
	ctx      context.Context
	spec     JobSpec
	ns       string
	mk       *marker
	res      *Result
	attempts map[string]int
	// blockSums is the run's runState.blockSums.
	blockSums map[string][sha1.Size]byte
	// completed guards per-task completion accounting: with speculative
	// hedges, retries and failovers racing, only the first finisher
	// counts.
	completed map[string]bool
	// only, when non-empty, restricts the tasks' shuffle output to the
	// listed reduce partitions (partition recovery re-executions).
	only []int
	// jw, when non-nil, journals task completions (nil for recovery
	// re-executions, whose tasks are already journaled as done).
	jw        *journalWriter
	taskByID  map[string]scheduler.Task
	remaining int
	done      chan error // buffered(1); receives the phase outcome
	failed    bool
}

// NewDriver builds a Driver. The scheduler must already know the worker
// nodes and their map slots; reduceSlots bounds reducer concurrency per
// node (the paper configures 8 map and 8 reduce slots per server).
func NewDriver(self hashing.NodeID, net transport.Network, fs *dhtfs.Service,
	sched scheduler.Scheduler, ring func() hashing.Ring, reduceSlots int) (*Driver, error) {
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
		jobs:        make(map[string]*activeJob),
		wake:        make(chan struct{}, 1),
		inflight:    make(map[string]*inflightTask),
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
}

func markerFile(namespace string) string { return "_mr/" + namespace + "/done" }

// runState threads one run's cross-phase state: the partition table, the
// journal writer, and what partition recovery needs to re-execute maps.
type runState struct {
	spec JobSpec
	ns   string
	mk   *marker
	res  *Result
	jw   *journalWriter // nil with DisableJournal
	// attempts records the last attempt used per map task this run;
	// recovery re-executions bump strictly past it.
	attempts map[string]int
	// attemptBase is this driver generation's first attempt number
	// (resumed runs start a fresh stride above every prior generation).
	attemptBase int
	// reduceEpoch keys the workers' merged-intermediate cache entries for
	// this run. It starts at attemptBase (unique per generation) and is
	// bumped on every partition-recovery round, so merged blobs cached
	// before superseding attempts were pushed are never served again.
	reduceEpoch int
	// mapTasks lists every contributing map task, for partition-recovery
	// re-execution (nil when the map phase was reused via tag and the
	// intermediates are shared).
	mapTasks []scheduler.Task
	// blockSums holds, by map task ID, the digest the input file's
	// metadata records for the task's block; tasks over files stored
	// without digests have no entry.
	blockSums map[string][sha1.Size]byte
	// partsDone maps finished partitions to their recorded output file
	// ("" = no output).
	partsDone map[int]string
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
			// The TTL on stored intermediate results invalidates reuse.
			if mk.Expires.IsZero() || d.fs.Now().Before(mk.Expires) {
				reused = true
			} else {
				mk = marker{}
			}
		}
	}
	if prior == nil && !reused {
		table, err := d.ring().RangeTable()
		if err != nil {
			return Result{}, err
		}
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
		spec:      spec,
		ns:        ns,
		mk:        &mk,
		res:       &res,
		attempts:  make(map[string]int),
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
	if !reused {
		// Partition recovery re-executes the contributing map tasks, so
		// they are expanded even when the journal says the map phase is
		// done. (A tag-reused map phase shares its intermediates with
		// other jobs and is not re-executable here.)
		var err error
		st.mapTasks, st.blockSums, err = d.mapTasks(ctx, spec)
		if err != nil {
			return Result{}, err
		}
	}

	// A journal adoption may find partition owners that died with the
	// previous driver (most commonly the old manager itself). They must be
	// re-homed before any map runs, or the resumed maps would push their
	// spills at dead nodes and fail the phase.
	var deadParts []int
	if prior != nil {
		var err error
		deadParts, err = d.rehomeDeadPartitions(ctx, st)
		if err != nil {
			return Result{}, err
		}
	}

	if runMaps {
		todo := st.mapTasks
		if prior != nil {
			todo = nil
			for _, t := range st.mapTasks {
				if !prior.MapsDone[t.ID] {
					todo = append(todo, t)
				}
			}
		}
		for _, t := range todo {
			st.attempts[t.ID] = st.attemptBase
		}
		res.MapTasks = len(todo)
		if len(todo) > 0 {
			d.events.Emit(events.KindJob, "job.phase.map", events.F{
				Job: spec.ID, Detail: fmt.Sprintf("tasks=%d", len(todo)),
			})
			j := &activeJob{
				spec:      spec,
				ns:        ns,
				mk:        &mk,
				res:       &res,
				attempts:  st.attempts,
				blockSums: st.blockSums,
				jw:        st.jw,
			}
			if err := d.runMapPhase(ctx, j, todo); err != nil {
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
	// partitions from exactly those maps before reducing.
	if len(deadParts) > 0 {
		if err := d.reshuffleLostPartitions(ctx, st, prior, deadParts); err != nil {
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

// mapTasks expands the job's input files into one task per block, with
// the blocks' digests by task ID.
func (d *Driver) mapTasks(ctx context.Context, spec JobSpec) ([]scheduler.Task, map[string][sha1.Size]byte, error) {
	var tasks []scheduler.Task
	sums := make(map[string][sha1.Size]byte)
	for _, input := range spec.Inputs {
		meta, err := d.fs.Lookup(ctx, input, spec.User)
		if err != nil {
			return nil, nil, fmt.Errorf("mapreduce: input %q: %w", input, err)
		}
		for i, bk := range meta.BlockKeys {
			id := fmt.Sprintf("%s/m/%s/%d", spec.ID, input, i)
			tasks = append(tasks, scheduler.Task{Job: spec.ID, ID: id, HashKey: bk})
			if i < len(meta.BlockSums) {
				sums[id] = meta.BlockSums[i]
			}
		}
	}
	return tasks, sums, nil
}

// runMapPhase registers the job with the dispatcher, submits its tasks,
// and waits for the phase to finish.
func (d *Driver) runMapPhase(ctx context.Context, j *activeJob, tasks []scheduler.Task) error {
	j.ctx = ctx
	j.taskByID = make(map[string]scheduler.Task, len(tasks))
	j.completed = make(map[string]bool, len(tasks))
	j.remaining = len(tasks)
	j.done = make(chan error, 1)
	if j.attempts == nil {
		j.attempts = make(map[string]int, len(tasks))
	}
	for _, t := range tasks {
		j.taskByID[t.ID] = t
	}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errors.New("mapreduce: driver closed")
	}
	if _, dup := d.jobs[j.spec.ID]; dup {
		d.mu.Unlock()
		return fmt.Errorf("mapreduce: job %s is already running", j.spec.ID)
	}
	d.jobs[j.spec.ID] = j
	if !d.started {
		d.started = true
		go d.dispatchLoop()
	}
	d.mu.Unlock()
	d.maybeStartSpeculator(j.spec)

	// Cancellation aborts the phase between dispatches; in-flight worker
	// RPCs run to completion (and are journaled), so a later Resume skips
	// exactly what finished.
	if ctx.Done() != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-ctx.Done():
				d.failJob(j, ctx.Err())
			case <-stopWatch:
			}
		}()
	}

	now := d.since()
	for _, t := range tasks {
		d.events.Emit(events.KindSched, "sched.admit", events.F{Job: t.Job, Task: t.ID})
		d.sched.Submit(t, now)
	}
	d.signal()
	err := <-j.done

	d.mu.Lock()
	delete(d.jobs, j.spec.ID)
	d.mu.Unlock()
	return err
}

// failJob marks a job failed and delivers the outcome once.
func (d *Driver) failJob(j *activeJob, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if j.failed {
		return
	}
	j.failed = true
	j.done <- err
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
			j := d.jobs[a.Task.Job]
			d.mu.Unlock()
			if j == nil {
				// The job failed and deregistered while this task sat in
				// the queue; give the slot back.
				d.sched.Release(a.Node)
				continue
			}
			go d.runMapTask(j, a)
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

// mapReq builds the RunMapReq for one execution attempt of a map task.
func (d *Driver) mapReq(j *activeJob, t scheduler.Task, attempt int) *RunMapReq {
	return &RunMapReq{
		Job:            j.spec.ID,
		Namespace:      j.ns,
		App:            j.spec.App,
		Params:         j.spec.Params,
		BlockKey:       t.HashKey,
		BlockSum:       j.blockSums[t.ID],
		Task:           t.ID,
		Attempt:        attempt,
		ReduceServers:  j.mk.Servers,
		ReduceBounds:   j.mk.Bounds,
		ReduceReplicas: j.mk.Replicas,
		OnlyPartitions: j.only,
		SpillThreshold: j.spec.SpillThreshold,
		TTL:            j.spec.IntermediateTTL,
	}
}

// completeMapLocked accounts one successful map execution; duplicate
// finishers (a speculative hedge losing to the original, a stale retry)
// are ignored. Caller holds d.mu.
func (d *Driver) completeMapLocked(j *activeJob, taskID string, resp RunMapResp) {
	if j.failed || j.completed[taskID] {
		return
	}
	j.completed[taskID] = true
	// The race is decided: abort whichever duplicate attempt is still in
	// flight (the hedge when the original won, and vice versa) so it
	// stops consuming the straggling node instead of running to the end.
	d.cancelInflight(j.spec.ID, taskID)
	for i, b := range resp.PartBytes {
		j.mk.PartBytes[i] += b
	}
	j.res.ShuffleBytes += sum(resp.PartBytes)
	if resp.CacheHit {
		j.res.CacheHits++
	} else {
		j.res.CacheMisses++
	}
	if j.jw != nil {
		attempt := j.attempts[taskID]
		partBytes := append([]int64(nil), j.mk.PartBytes...)
		j.jw.update(func(jr *journal) {
			jr.MapsDone[taskID] = true
			if jr.Attempts[taskID] < attempt {
				jr.Attempts[taskID] = attempt
			}
			jr.Mk.PartBytes = partBytes
		})
	}
	d.events.Emit(events.KindTask, "map.finish", events.F{
		Job: j.spec.ID, Task: taskID, Attempt: j.attempts[taskID],
	})
	j.remaining--
	if j.remaining == 0 {
		j.done <- nil
	}
}

// runMapTask executes one assignment against its worker and accounts the
// completion.
func (d *Driver) runMapTask(j *activeJob, a scheduler.Assignment) {
	d.mu.Lock()
	if j.failed || j.completed[a.Task.ID] {
		// A hedge or an earlier attempt finished this task while the
		// assignment sat in the queue; just return the slot.
		d.sched.Release(a.Node)
		d.mu.Unlock()
		d.signal()
		return
	}
	attempt := j.attempts[a.Task.ID]
	d.mu.Unlock()
	// The queue wait is only known at dispatch; reconstruct it as a span
	// ending now so the timeline shows time-in-scheduler per task.
	if a.Waited > 0 {
		_, qs := d.tracer.StartSpanAt(j.ctx, "sched.queue_wait", d.tracer.NowNS()-int64(a.Waited))
		qs.Annotate("task", a.Task.ID)
		qs.End()
	}
	tctx, sp := d.tracer.StartSpan(j.ctx, "driver.map_task")
	sp.Annotate("task", a.Task.ID)
	sp.Annotate("node", string(a.Node))
	sp.Annotate("local", strconv.FormatBool(a.Local))
	d.events.Emit(events.KindTask, "map.dispatch", events.F{
		Job: j.spec.ID, Task: a.Task.ID, Attempt: attempt, Detail: string(a.Node),
	})
	// The attempt runs under its own cancellable context, registered with
	// the straggler scanner: if a speculative hedge wins the task, it
	// aborts this RPC through cancelInflight instead of letting it run to
	// completion against the straggling node.
	actx, cancel := context.WithCancel(tctx)
	defer cancel()
	d.trackInflight(j, a.Task, attempt, a.Node, cancel)
	var resp RunMapResp
	rpcTimer := d.reg.Histogram("mr.driver.map_rpc_ns").Start()
	err := d.call(actx, a.Node, MethodRunMap, d.mapReq(j, a.Task, attempt), &resp)
	rpcTimer.Stop()
	d.untrackInflight(a.Task.Job, a.Task.ID)
	switch {
	case err != nil:
		sp.Annotate("error", err.Error())
	case resp.CacheHit:
		sp.Annotate("cache", "hit")
	default:
		sp.Annotate("cache", "miss")
	}
	sp.End()

	maxAttempts := j.spec.maxAttempts()

	d.mu.Lock()
	defer func() {
		d.mu.Unlock()
		d.signal()
	}()
	if err == nil {
		d.sched.Release(a.Node)
		d.completeMapLocked(j, a.Task.ID, resp)
		return
	}
	// Failure handling: unreachable workers leave the pool; application
	// errors are retried elsewhere up to the limit.
	if errors.Is(err, transport.ErrUnreachable) {
		d.sched.RemoveNode(a.Node)
	} else {
		d.sched.Release(a.Node)
	}
	if j.failed || j.completed[a.Task.ID] {
		// A speculative hedge already finished the task; the straggler's
		// failure needs no retry.
		return
	}
	j.attempts[a.Task.ID]++
	if j.attempts[a.Task.ID] >= st1Base(attempt)+maxAttempts {
		// The scheduler's retry budget is spent. Fall back to the paper's
		// recovery rule: hand the task straight to the replica set of its
		// input's hash key — the successor that takes over a faulty
		// server's range also holds the block's replica.
		d.reg.Counter("mr.driver.map_failovers").Inc()
		d.events.Emit(events.KindTask, "map.giveup", events.F{
			Job: j.spec.ID, Task: a.Task.ID, Attempt: attempt, Detail: err.Error(),
		})
		go d.failoverMapTask(j, j.taskByID[a.Task.ID], a.Node, err)
		return
	}
	d.reg.Counter("mr.driver.map_retries").Inc()
	d.events.Emit(events.KindTask, "map.retry", events.F{
		Job: j.spec.ID, Task: a.Task.ID, Attempt: attempt, Detail: err.Error(),
	})
	d.sched.Submit(j.taskByID[a.Task.ID], d.since())
}

// st1Base floors an attempt number to its generation's stride base, so
// the per-generation retry budget stays maxAttempts regardless of how
// many earlier generations ran.
func st1Base(attempt int) int { return attempt - attempt%attemptStride }

// failoverMapTask dispatches a map task directly (off the scheduler) to
// the members of its hash key's replica set, excluding the node that just
// failed it. The job fails only when every candidate has failed too.
func (d *Driver) failoverMapTask(j *activeJob, t scheduler.Task, exclude hashing.NodeID, lastErr error) {
	candidates, _ := d.ring().ReplicaSet(t.HashKey, 3)
	for _, cand := range candidates {
		if cand == exclude {
			continue
		}
		d.mu.Lock()
		if j.failed || j.completed[t.ID] {
			d.mu.Unlock()
			return
		}
		attempt := j.attempts[t.ID]
		j.attempts[t.ID]++
		d.mu.Unlock()
		tctx, sp := d.tracer.StartSpan(j.ctx, "driver.map_task")
		sp.Annotate("task", t.ID)
		sp.Annotate("node", string(cand))
		sp.Annotate("failover", "true")
		sp.Annotate("attempt", strconv.Itoa(attempt))
		d.events.Emit(events.KindTask, "map.failover", events.F{
			Job: j.spec.ID, Task: t.ID, Attempt: attempt, Detail: string(cand),
		})
		var resp RunMapResp
		rpcTimer := d.reg.Histogram("mr.driver.map_rpc_ns").Start()
		err := d.call(tctx, cand, MethodRunMap, d.mapReq(j, t, attempt), &resp)
		rpcTimer.Stop()
		if err != nil {
			sp.Annotate("error", err.Error())
		}
		sp.End()
		if err == nil {
			d.mu.Lock()
			d.completeMapLocked(j, t.ID, resp)
			d.mu.Unlock()
			d.signal()
			return
		}
		lastErr = err
	}
	d.failJob(j, fmt.Errorf("mapreduce: task %s failed (failover exhausted), last error: %w",
		t.ID, lastErr))
	d.signal()
}

// Close stops the dispatcher goroutine. Intended for process shutdown;
// jobs still in flight fail their map phases.
func (d *Driver) Close() {
	d.mu.Lock()
	d.closed = true
	jobs := make([]*activeJob, 0, len(d.jobs))
	for _, j := range d.jobs {
		jobs = append(jobs, j)
	}
	d.mu.Unlock()
	for _, j := range jobs {
		select {
		case j.done <- errors.New("mapreduce: driver closed"):
		default:
		}
	}
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
		SegmentOwner:       t.owner,
		OutputFile:         outFile,
		CacheIntermediates: st.spec.CacheIntermediates,
		CacheOutputs:       st.spec.CacheOutputs,
		Epoch:              st.reduceEpoch,
		TTL:                st.spec.IntermediateTTL,
		User:               st.spec.User,
	}
	if t.replica != "" {
		req.SegmentReplicas = []hashing.NodeID{t.owner, t.replica}
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

// recoverPartitions is lost-partition recovery, the heart of the
// self-healing layer: each lost partition is re-homed to a surviving
// ring node, the contributing map tasks are re-executed through the
// scheduler with a strictly higher attempt and a partition filter (only
// the lost partitions are re-shuffled; surviving partitions keep their
// segments untouched), and the returned tasks re-run the reduces at the
// new owners. The store's attempt/seq dedup discards any stale straggler
// spills from the dead node's generation.
func (d *Driver) recoverPartitions(ctx context.Context, st *runState, lost []lostPart) ([]reduceTask, error) {
	if len(st.mapTasks) == 0 {
		return nil, fmt.Errorf("mapreduce: cannot recover: map tasks are not re-executable (tag-reused intermediates): %w", lost[0].err)
	}
	_, sp := d.tracer.StartSpan(ctx, "driver.partition_recovery")
	defer sp.End()
	ring := d.ring()
	var retry []reduceTask
	var only []int
	for _, l := range lost {
		var newOwner hashing.NodeID
		if l.t.part < len(st.mk.Bounds) {
			if set, err := ring.ReplicaSet(st.mk.Bounds[l.t.part], 3); err == nil {
				for _, c := range set {
					if c != l.t.owner && c != l.t.replica {
						newOwner = c
						break
					}
				}
			}
		}
		if newOwner == "" {
			return nil, fmt.Errorf("mapreduce: no surviving node can adopt reduce partition %d: %w", l.t.part, l.err)
		}
		d.reg.Counter("mr.driver.partition_recoveries").Inc()
		st.res.RecoveredPartitions++
		sp.Annotate(partitionName(l.t.part), string(newOwner))
		d.events.Emit(events.KindTask, "partition.rehome", events.F{
			Job: st.spec.ID, Task: partitionName(l.t.part), Detail: string(newOwner),
		})
		st.mk.Servers[l.t.part] = newOwner
		var newReplica hashing.NodeID
		if len(st.mk.Replicas) > 0 {
			if succ, err := ring.Successor(newOwner); err == nil && succ != newOwner && succ != l.t.owner {
				newReplica = succ
			}
			st.mk.Replicas[l.t.part] = newReplica
		}
		only = append(only, l.t.part)
		retry = append(retry, reduceTask{part: l.t.part, owner: newOwner, replica: newReplica})
	}
	d.events.Emit(events.KindJob, "job.recovery", events.F{
		Job: st.spec.ID, Detail: fmt.Sprintf("partitions=%d", len(lost)),
	})
	d.recordFlight(st.spec.ID, "recovery")
	// The recovery maps push strictly higher attempts: invalidate every
	// merged-intermediate cache entry by moving the reduces to a new
	// epoch key.
	st.reduceEpoch++
	// Record the re-homing durably before re-shuffling, so a resume after
	// a further failure reduces at the adopted owners.
	if st.jw != nil {
		snap := copyMarker(st.mk)
		st.jw.updateSync(func(j *journal) { j.Mk = snap })
	}
	// Re-execute every contributing map with an attempt strictly above
	// anything pushed before (including prior driver generations).
	for _, t := range st.mapTasks {
		if st.attempts[t.ID] < st.attemptBase {
			st.attempts[t.ID] = st.attemptBase
		}
		st.attempts[t.ID]++
	}
	scratch := Result{Job: st.spec.ID}
	rmk := copyMarker(st.mk)
	rmk.PartBytes = make([]int64, len(st.mk.PartBytes))
	j := &activeJob{
		spec:      st.spec,
		ns:        st.ns,
		mk:        &rmk,
		res:       &scratch,
		attempts:  st.attempts,
		blockSums: st.blockSums,
		only:      only,
	}
	if err := d.runMapPhase(ctx, j, st.mapTasks); err != nil {
		return nil, fmt.Errorf("mapreduce: partition-recovery map re-execution: %w", err)
	}
	// The re-shuffle and re-reads are real work the job paid for.
	st.res.ShuffleBytes += scratch.ShuffleBytes
	st.res.CacheHits += scratch.CacheHits
	st.res.CacheMisses += scratch.CacheMisses
	return retry, nil
}

// rehomeDeadPartitions repairs an adopted job's partition table against
// the current ring before any task runs: partitions whose journaled owner
// left the ring are promoted to their intermediate replica when one is
// alive (the replica holds full spill copies), or re-homed to a surviving
// node otherwise. Re-homed partitions lost their data with the owner and
// are returned for a filtered re-shuffle.
func (d *Driver) rehomeDeadPartitions(ctx context.Context, st *runState) ([]int, error) {
	ring := d.ring()
	live := make(map[hashing.NodeID]bool)
	for _, id := range ring.Members() {
		live[id] = true
	}
	_, sp := d.tracer.StartSpan(ctx, "driver.partition_rehome")
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
		var replica hashing.NodeID
		if p < len(st.mk.Replicas) {
			replica = st.mk.Replicas[p]
		}
		if replica != "" && live[replica] {
			// The replica holds a full copy of every pushed spill: promote
			// it and grow a fresh replica behind it.
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
			changed = true
			continue
		}
		// Owner (and replica, if any) died with the intermediates. The ring
		// no longer contains them, so any replica-set member is a live home.
		var newOwner hashing.NodeID
		if p < len(st.mk.Bounds) {
			if set, err := ring.ReplicaSet(st.mk.Bounds[p], 3); err == nil && len(set) > 0 {
				newOwner = set[0]
			}
		}
		if newOwner == "" {
			return nil, fmt.Errorf("mapreduce: no surviving node can adopt reduce partition %d of resumed job %s", p, st.spec.ID)
		}
		d.reg.Counter("mr.driver.partition_recoveries").Inc()
		st.res.RecoveredPartitions++
		st.mk.Servers[p] = newOwner
		if len(st.mk.Replicas) > 0 {
			var next hashing.NodeID
			if succ, err := ring.Successor(newOwner); err == nil && succ != newOwner {
				next = succ
			}
			st.mk.Replicas[p] = next
		}
		st.mk.PartBytes[p] = 0 // nothing survives; the re-shuffle refills it
		sp.Annotate(partitionName(p), "re-homed "+string(newOwner))
		d.events.Emit(events.KindTask, "partition.rehome", events.F{
			Job: st.spec.ID, Task: partitionName(p), Detail: string(newOwner),
		})
		dead = append(dead, p)
		changed = true
	}
	if len(dead) > 0 {
		d.events.Emit(events.KindJob, "job.recovery", events.F{
			Job: st.spec.ID, Detail: fmt.Sprintf("partitions=%d", len(dead)),
		})
		d.recordFlight(st.spec.ID, "recovery")
	}
	// Persist the repaired table before any spill is pushed at it, so a
	// further failure resumes against the adopted owners.
	if changed && st.jw != nil {
		snap := copyMarker(st.mk)
		st.jw.updateSync(func(j *journal) { j.Mk = snap })
	}
	return dead, nil
}

// reshuffleLostPartitions re-executes an adopted job's journaled-done map
// tasks with a partition filter, restoring exactly the re-homed
// partitions' intermediates at their new owners. The resumed generation's
// attempt stride makes these spills supersede any stale ones a dying
// pusher may still deliver.
func (d *Driver) reshuffleLostPartitions(ctx context.Context, st *runState, prior *journal, only []int) error {
	if len(st.mapTasks) == 0 {
		return fmt.Errorf("mapreduce: cannot re-shuffle lost partitions of job %s: map tasks are not re-executable", st.spec.ID)
	}
	var redo []scheduler.Task
	for _, t := range st.mapTasks {
		if prior.MapsDone[t.ID] {
			redo = append(redo, t)
		}
	}
	if len(redo) == 0 {
		return nil // every map re-ran this generation and already pushed to the new owners
	}
	for _, t := range redo {
		if st.attempts[t.ID] < st.attemptBase {
			st.attempts[t.ID] = st.attemptBase
		}
		st.attempts[t.ID]++
	}
	scratch := Result{Job: st.spec.ID}
	j := &activeJob{
		spec: st.spec,
		ns:   st.ns,
		// The live marker, on purpose: the re-homed partitions' PartBytes
		// must accumulate where the reduce phase reads them.
		mk:        st.mk,
		res:       &scratch,
		attempts:  st.attempts,
		blockSums: st.blockSums,
		jw:        st.jw,
		only:      only,
	}
	if err := d.runMapPhase(ctx, j, redo); err != nil {
		return fmt.Errorf("mapreduce: lost-partition re-shuffle: %w", err)
	}
	st.res.ShuffleBytes += scratch.ShuffleBytes
	st.res.CacheHits += scratch.CacheHits
	st.res.CacheMisses += scratch.CacheMisses
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
	var out []KV
	for _, f := range res.OutputFiles {
		data, err := d.fs.ReadFile(ctx, f, user)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: collect %q: %w", f, err)
		}
		kvs, err := DecodeKVs(data)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: collect %q: %w", f, err)
		}
		out = append(out, kvs...)
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
