package mapreduce

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

// Job journal: the durable record of one job's progress, stored as a
// replicated DHT-FS file. The `_mr/<ns>/done` reuse marker records only a
// *finished* map phase; the journal extends it to live state — the spec,
// the partition table fixed at job start, per-task completion and
// per-partition completion — so a restarted or newly elected manager can
// adopt an interrupted job with Driver.Resume and re-execute only the
// missing work.

// Journal phases, in order.
const (
	phaseMap    = "map"
	phaseReduce = "reduce"
	phaseDone   = "done"
)

// attemptStride separates the attempt ranges of successive driver
// generations: a resumed run tags its executions with attempts from the
// next stride, so its spills always supersede partial spills of the
// interrupted generation in the store's max-attempt dedup — even when the
// crash lost the journal updates recording how far attempts had advanced.
const attemptStride = 1 << 20

// journal is the gob-encoded journal file payload.
type journal struct {
	Spec JobSpec
	// Phase is the furthest phase the job has entered (map → reduce →
	// done).
	Phase string
	// Generation counts driver adoptions: 0 for the original run, +1 per
	// resume. Attempts of generation g start at g*attemptStride.
	Generation int
	// Mk is the partition table fixed at job start. A resumed map phase
	// must keep spilling to the same owners the completed tasks spilled
	// to; its PartBytes mirror the live marker as map tasks complete.
	Mk marker
	// MapsDone marks map task IDs whose spills are fully pushed.
	MapsDone map[string]bool
	// Attempts records the last attempt known used per map task
	// (observability; correctness on resume comes from Generation).
	Attempts map[string]int
	// PartsDone maps completed reduce partitions to their output file
	// ("" for an empty partition with no output).
	PartsDone map[int]string
}

// journalPrefix namespaces journal files inside the framework-internal
// tree (hidden from client.list like the reuse markers).
const journalPrefix = "_mr/journal/"

func journalFile(jobID string) string { return journalPrefix + jobID }

// journalWriter persists one job's journal with write coalescing: map
// completions mark the state dirty and a single flusher goroutine uploads
// the latest snapshot, so a burst of completions costs one upload, not
// one per task. Uploads are best effort — the journal trades a little
// idempotent re-execution on resume for never failing a healthy job on a
// flaky network — but phase transitions and partition completions flush
// synchronously, so a resumed driver never re-reduces a completed
// partition.
type journalWriter struct {
	d    *Driver
	file string
	user string

	// mu guards the journal state and dirty flag only; no RPC ever runs
	// under it.
	mu    sync.Mutex
	j     journal
	dirty bool

	// All uploads run on the single flusher goroutine, which both
	// serializes snapshots (they reach the file system in order) and keeps
	// network I/O off every mutex. sendMu guards kick sends against close.
	sendMu sync.Mutex
	closed bool
	kick   chan chan struct{} // nil = coalesced async flush; non-nil = acked sync flush
	idle   chan struct{}      // closed when the flusher goroutine exits
}

// newJournalWriter seeds the writer from a prior journal (resume) or a
// fresh one, persists the opening snapshot synchronously, and starts the
// flusher.
func (d *Driver) newJournalWriter(ctx context.Context, spec JobSpec, mk *marker, prior *journal) *journalWriter {
	w := &journalWriter{
		d:    d,
		file: journalFile(spec.ID),
		user: spec.User,
		kick: make(chan chan struct{}, 1),
		idle: make(chan struct{}),
	}
	if prior != nil {
		w.j = *prior
		w.j.Generation = prior.Generation + 1
	} else {
		w.j = journal{Spec: spec, Phase: phaseMap}
	}
	if w.j.MapsDone == nil {
		w.j.MapsDone = make(map[string]bool)
	}
	if w.j.Attempts == nil {
		w.j.Attempts = make(map[string]int)
	}
	if w.j.PartsDone == nil {
		w.j.PartsDone = make(map[int]string)
	}
	w.j.Mk = copyMarker(mk)
	w.dirty = true
	// The journal must exist before any work it would cover; the flusher
	// is not running yet, so calling doFlush directly is single-threaded.
	w.doFlush(ctx)
	go w.loop(ctx)
	return w
}

// attemptBase returns the first attempt number of this writer's
// generation.
func (w *journalWriter) attemptBase() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.j.Generation * attemptStride
}

// signalFlush hands a flush request to the flusher goroutine. A nil done
// coalesces (drop the kick if one is already pending); a non-nil done is
// delivered unconditionally and closed once the flush covering the
// caller's mutation completed. Returns false after close.
func (w *journalWriter) signalFlush(done chan struct{}) bool {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	if w.closed {
		return false
	}
	if done == nil {
		select {
		case w.kick <- nil:
		default:
		}
		return true
	}
	// The flusher never takes sendMu, so this blocking send always drains.
	w.kick <- done
	return true
}

// update applies a mutation and schedules an asynchronous flush. Safe to
// call with driver locks held: it only signals the flusher.
func (w *journalWriter) update(fn func(*journal)) {
	w.mu.Lock()
	fn(&w.j)
	w.dirty = true
	w.mu.Unlock()
	w.signalFlush(nil)
}

// updateSync applies a mutation and waits until a flush covering it has
// been persisted. Must not be called with driver locks held (it blocks on
// file-system RPCs).
func (w *journalWriter) updateSync(fn func(*journal)) {
	w.mu.Lock()
	fn(&w.j)
	w.dirty = true
	w.mu.Unlock()
	done := make(chan struct{})
	if w.signalFlush(done) {
		<-done
	}
}

// setPhase records a phase transition (with the current marker state)
// synchronously.
func (w *journalWriter) setPhase(phase string, mk *marker) {
	snap := copyMarker(mk)
	w.updateSync(func(j *journal) {
		j.Phase = phase
		j.Mk = snap
	})
}

// loop is the coalescing flusher: each kick flushes the latest snapshot
// and acks sync requests. An ack is correct even when doFlush found
// nothing dirty: the requester's mutation was then already covered by an
// earlier flush (dirty is cleared under mu only when the snapshot
// includes it).
func (w *journalWriter) loop(ctx context.Context) {
	defer close(w.idle)
	for done := range w.kick {
		w.doFlush(ctx)
		if done != nil {
			close(done)
		}
	}
}

// doFlush uploads the current snapshot if dirty. Only the flusher
// goroutine (and the single-threaded open/close paths) call it. Upload
// errors are counted, not surfaced: losing a journal write only means a
// resume re-executes a few already-finished tasks (idempotently, thanks
// to the attempt-tagged store). A failed upload re-marks the state dirty
// so the dropped snapshot is retried by the next flush — in particular by
// close's final one; without that, mutations between the failed flush and
// close would silently never reach the journal file.
func (w *journalWriter) doFlush(ctx context.Context) {
	w.mu.Lock()
	if !w.dirty {
		w.mu.Unlock()
		return
	}
	w.dirty = false
	//lint:ignore wiremsg durable file (the job journal in dhtfs), adopted by restarted and newly elected managers: it stays on gob
	data, err := transport.Encode(w.j)
	jobID := w.j.Spec.ID
	phase := w.j.Phase
	w.mu.Unlock()
	if err == nil {
		_, err = w.d.fs.Upload(ctx, w.file, w.user, dhtfs.PermPublic, data, 1<<20)
	}
	if err != nil {
		// Visible discard: journaling is best effort by design (see the
		// type comment); the counter keeps the loss observable.
		w.d.reg.Counter("mr.driver.journal_errors").Inc()
		w.d.events.Emit(events.KindJournal, "journal.flush_error", events.F{
			Job: jobID, Detail: err.Error(),
		})
		w.mu.Lock()
		w.dirty = true
		w.mu.Unlock()
		return
	}
	w.d.events.Emit(events.KindJournal, "journal.flush", events.F{Job: jobID, Detail: phase})
}

// close stops the flusher and persists the final state, so even an
// aborted run leaves its latest progress adoptable. The final flush runs
// on a context detached from ctx's cancellation: a cancelled job is
// exactly the case where the last snapshot must still reach the journal
// for a later Resume to adopt.
func (w *journalWriter) close(ctx context.Context) {
	w.sendMu.Lock()
	if w.closed {
		w.sendMu.Unlock()
		return
	}
	w.closed = true
	w.sendMu.Unlock()
	close(w.kick)
	<-w.idle
	// Single-threaded again: the flusher has exited.
	w.doFlush(context.WithoutCancel(ctx))
}

// copyMarker deep-copies a marker so journal snapshots never alias the
// live slices the dispatcher mutates.
func copyMarker(mk *marker) marker {
	if mk == nil {
		return marker{}
	}
	out := *mk
	out.Servers = append([]hashing.NodeID(nil), mk.Servers...)
	out.Bounds = append([]hashing.Key(nil), mk.Bounds...)
	out.PartBytes = append([]int64(nil), mk.PartBytes...)
	out.Replicas = append([]hashing.NodeID(nil), mk.Replicas...)
	return out
}

// readJournal fetches and decodes the journal file of a job through fs.
func readJournal(ctx context.Context, fs *dhtfs.Service, jobID string) (*journal, error) {
	data, err := fs.ReadFile(ctx, journalFile(jobID), "")
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %s has no journal: %w", jobID, err)
	}
	var j journal
	//lint:ignore wiremsg durable file (the job journal in dhtfs), adopted by restarted and newly elected managers: it stays on gob
	if err := transport.Decode(data, &j); err != nil {
		return nil, fmt.Errorf("mapreduce: corrupt journal for job %s: %w", jobID, err)
	}
	if j.Spec.ID != jobID {
		return nil, fmt.Errorf("mapreduce: journal for job %s names job %s", jobID, j.Spec.ID)
	}
	return &j, nil
}

// loadJournal fetches and decodes a job's journal.
func (d *Driver) loadJournal(ctx context.Context, jobID string) (*journal, error) {
	return readJournal(ctx, d.fs, jobID)
}

// Resume loads the durable journal of an interrupted job and drives it
// to completion, skipping the maps and reduce partitions the journal
// records as done. A job whose journal already reached the done phase
// returns its recorded result without re-running anything. This is how a
// restarted or newly elected manager adopts in-flight jobs.
func (d *Driver) Resume(jobID string) (Result, error) {
	//lint:ignore ctxflow Resume is the ctx-less convenience entry point; ResumeContext is the threaded form
	return d.ResumeContext(context.Background(), jobID)
}

// ResumeContext is Resume with caller-controlled cancellation.
func (d *Driver) ResumeContext(ctx context.Context, jobID string) (Result, error) {
	prior, err := d.loadJournal(ctx, jobID)
	if err != nil {
		return Result{}, err
	}
	if err := prior.Spec.validate(); err != nil {
		return Result{}, err
	}
	return d.run(ctx, prior.Spec, prior)
}

// JournalSnapshot is the externally visible progress summary of one
// journaled job, for debug bundles and operator tooling. It deliberately
// flattens the journal to counts: the full journal carries the job spec
// (including params), which does not belong in a shareable bundle.
type JournalSnapshot struct {
	Job        string
	Phase      string
	Generation int
	// MapsDone / PartsDone count completed map tasks and reduce
	// partitions; Attempts counts map tasks with at least one recorded
	// attempt.
	MapsDone  int
	PartsDone int
	Attempts  int
}

// JournalSnapshots summarizes every journal reachable through fs. A
// non-empty job restricts the listing to that job. Unreachable or corrupt
// journals are skipped — bundle capture runs exactly when parts of the
// cluster are failing. Sorted by job ID.
func JournalSnapshots(ctx context.Context, fs *dhtfs.Service, job string) ([]JournalSnapshot, error) {
	names, err := fs.ListPrefix(ctx, journalPrefix)
	if err != nil {
		return nil, err
	}
	var out []JournalSnapshot
	for _, name := range names {
		jobID := strings.TrimPrefix(name, journalPrefix)
		if job != "" && jobID != job {
			continue
		}
		j, err := readJournal(ctx, fs, jobID)
		if err != nil {
			continue
		}
		out = append(out, JournalSnapshot{
			Job:        jobID,
			Phase:      j.Phase,
			Generation: j.Generation,
			MapsDone:   len(j.MapsDone),
			PartsDone:  len(j.PartsDone),
			Attempts:   len(j.Attempts),
		})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Job < out[k].Job })
	return out, nil
}

// Orphans lists journaled jobs that have not reached the done phase —
// the jobs a newly elected manager should adopt with Resume. Sorted by
// job ID.
func (d *Driver) Orphans(ctx context.Context) ([]string, error) {
	names, err := d.fs.ListPrefix(ctx, journalPrefix)
	if err != nil {
		return nil, err
	}
	var jobs []string
	for _, name := range names {
		jobID := strings.TrimPrefix(name, journalPrefix)
		j, err := d.loadJournal(ctx, jobID)
		if err != nil {
			continue // a corrupt or vanished journal is not adoptable
		}
		if j.Phase != phaseDone {
			jobs = append(jobs, jobID)
		}
	}
	sort.Strings(jobs)
	return jobs, nil
}
