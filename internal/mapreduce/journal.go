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
)

// Job journal: the durable record of one job's progress, stored as a
// replicated DHT-FS file. A reuse marker records only a published map
// phase's partition table; the journal extends it to live state — the spec,
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

// journal is the journal file's payload (its codec is in wire.go).
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
	// PartsDone maps completed reduce partitions to their output file: a
	// reduce task's first partition names the task's file, and its other
	// partitions, like a task that wrote no output, record "".
	PartsDone map[int]string
	// Lost marks the partitions whose spills may be missing at the owner
	// Mk names: one a finished map could not push to (recorded with the
	// map's completion), or one re-homed and not yet re-shuffled. A
	// resume re-homes and re-shuffles them before reducing any; a
	// journal written before the field existed loads it empty.
	Lost map[int]bool
}

// journalPrefix namespaces journal files inside the framework-internal
// tree (hidden from client.list like the reuse markers).
const journalPrefix = "_mr/journal/"

func journalFile(jobID string) string { return journalPrefix + jobID }

// journalWriter persists one job's journal. Every record updates the
// state; a flush point (the opening snapshot, a wave of completions, see
// pace, a phase change, a re-homed table, the end of a re-shuffle) asks
// for one upload of a whole snapshot, encoded when its turn comes, so no
// record can reach the file without every record made before it. Uploads
// run one after another, in request order, each on a goroutine of its
// own that waits for its predecessor's, so none runs under a lock and the
// file never goes back. A job's snapshot count is thus its count of flush
// points. Uploads are best effort — the journal trades a little
// idempotent re-execution on resume for never failing a healthy job on a
// flaky network. The driver waits only where a reader depends on the
// file: the opening snapshot (before any work), the done phase (before
// Run returns) and a re-homed partition table (before any spill is pushed
// at it); each wait is timed in mr.driver.journal_wait_ns.
type journalWriter struct {
	d    *Driver
	file string
	user string

	// mu guards the fields below; no RPC ever runs under it.
	mu sync.Mutex
	j  journal
	// dirty reports that the file lacks a record: one made after the last
	// snapshot was encoded, or one whose upload failed.
	dirty bool
	// last is closed once the latest requested upload is over.
	last chan struct{}
}

// newJournalWriter seeds the writer from a prior journal (resume) or a
// fresh one and persists the opening snapshot synchronously.
func (d *Driver) newJournalWriter(ctx context.Context, spec JobSpec, mk *marker, prior *journal) *journalWriter {
	w := &journalWriter{
		d:    d,
		file: journalFile(spec.ID),
		user: spec.User,
		last: make(chan struct{}),
	}
	close(w.last)
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
	if w.j.Lost == nil {
		w.j.Lost = make(map[int]bool)
	}
	w.j.Mk = copyMarker(mk)
	// The journal must exist before any work it would cover.
	wait := d.reg.Histogram("mr.driver.journal_wait_ns").Start()
	<-w.flush(ctx)
	wait.Stop()
	return w
}

// attemptBase returns the first attempt number of this writer's
// generation.
func (w *journalWriter) attemptBase() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.j.Generation * attemptStride
}

// update applies a mutation and, with flush, asks for an upload without
// waiting for it; without, the next flush carries it. Safe to call with
// driver locks held: it never blocks.
func (w *journalWriter) update(ctx context.Context, fn func(*journal), flush bool) {
	w.mu.Lock()
	fn(&w.j)
	w.dirty = true
	w.mu.Unlock()
	if flush {
		w.flush(ctx)
	}
}

// pace spaces the flushes of one phase's completions by work: a
// completion asks for a flush once the completions since the last request
// add up to a wave, the tasks the cluster runs at once, so a driver that
// dies redoes at most one wave of the phase plus the flush in flight. The
// completion that ends the phase asks for none: the phase record follows
// it at once.
type pace struct {
	wave, n int
}

// due counts one completion and reports whether it asks for a flush.
func (p *pace) due(last bool) bool {
	p.n++
	if last || p.n < p.wave {
		return false
	}
	p.n = 0
	return true
}

// updateSync applies a mutation and waits until its upload is over. Must
// not be called with driver locks held (it waits on file-system RPCs).
func (w *journalWriter) updateSync(ctx context.Context, fn func(*journal)) {
	w.update(ctx, fn, false)
	wait := w.d.reg.Histogram("mr.driver.journal_wait_ns").Start()
	<-w.flush(ctx)
	wait.Stop()
}

// setPhase records a phase transition with the current marker state. Only
// the done phase is waited for: Run returns after it. The reduce phase
// asks for an upload without waiting; a partition record made after it can
// only reach the file in a later snapshot, which holds it too.
func (w *journalWriter) setPhase(ctx context.Context, phase string, mk *marker) {
	snap := copyMarker(mk)
	record := func(j *journal) {
		j.Phase = phase
		j.Mk = snap
	}
	if phase == phaseDone {
		w.updateSync(ctx, record)
	} else {
		w.update(ctx, record, true)
	}
}

// flush asks for one upload, after every upload asked for before it, and
// returns a channel closed once it is over. It never blocks: the upload
// runs on a goroutine that waits for its predecessor's to be over.
func (w *journalWriter) flush(ctx context.Context) <-chan struct{} {
	done := make(chan struct{})
	w.mu.Lock()
	prev := w.last
	w.last = done
	w.mu.Unlock()
	go func() {
		defer close(done)
		<-prev
		w.upload(ctx)
	}()
	return done
}

// upload encodes the current snapshot and writes it to the journal file.
// Upload errors are counted, not surfaced: losing a journal write only
// means a resume re-executes a few already-finished tasks (idempotently,
// thanks to the attempt-tagged store). A failed upload leaves the state
// dirty, so close's final flush retries it; without that, a failure after
// the last flush point would never reach the journal file.
func (w *journalWriter) upload(ctx context.Context) {
	w.mu.Lock()
	w.dirty = false
	data := w.j.AppendWire(nil)
	jobID := w.j.Spec.ID
	phase := w.j.Phase
	w.mu.Unlock()
	// A fresh encoding per upload, handed over to the store.
	if _, err := w.d.fs.Upload(ctx, w.file, w.user, dhtfs.PermPublic, data, 1<<20); err != nil {
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

// close waits for the last upload asked for and persists what the file
// still lacks, so even an aborted run leaves its latest progress
// adoptable; a fault-free run already ended on its done snapshot. The
// final upload runs on a context detached from ctx's cancellation: a
// cancelled job is exactly the case where the last snapshot must still
// reach the journal for a later Resume to adopt. Nothing records once the
// run is over, so nothing flushes after close.
func (w *journalWriter) close(ctx context.Context) {
	w.mu.Lock()
	last := w.last
	w.mu.Unlock()
	<-last
	w.mu.Lock()
	dirty := w.dirty
	w.mu.Unlock()
	if dirty {
		w.upload(context.WithoutCancel(ctx))
	}
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
	return out
}

// readJournal fetches and decodes the journal file of a job through fs.
func readJournal(ctx context.Context, fs *dhtfs.Service, jobID string) (*journal, error) {
	data, err := fs.ReadFile(ctx, journalFile(jobID), "")
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %s has no journal: %w", jobID, err)
	}
	var j journal
	if err := j.ParseWire(data); err != nil {
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
