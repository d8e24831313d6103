package events

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"eclipsemr/internal/metrics"
)

// tickClock is a deterministic clock advancing a fixed step per read.
func tickClock(startNS, stepNS int64) metrics.Clock {
	now := startNS - stepNS
	return metrics.ClockFunc(func() time.Time {
		now += stepNS
		return time.Unix(0, now)
	})
}

func TestEmitAndSnapshot(t *testing.T) {
	l := New("node-a", Options{Clock: tickClock(1000, 10), Capacity: 16})
	l.Emit(KindJob, "job.submit", F{Job: "wc"})
	l.Emit(KindTask, "map.dispatch", F{Job: "wc", Task: "m0", Attempt: 1, Detail: "node-b"})
	l.Emit(KindMembership, "member.join", F{Detail: "node-c"})

	evs := l.Events("", 0)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	e := evs[1]
	if e.Kind != KindTask || e.Name != "map.dispatch" || e.Job != "wc" ||
		e.Task != "m0" || e.Attempt != 1 || e.Detail != "node-b" || e.Node != "node-a" {
		t.Fatalf("event fields wrong: %+v", e)
	}
	if evs[0].AtNS != 1000 || evs[1].AtNS != 1010 || evs[2].AtNS != 1020 {
		t.Fatalf("timestamps not from injected clock: %d %d %d", evs[0].AtNS, evs[1].AtNS, evs[2].AtNS)
	}
	// Job filter keeps the job's events plus cluster-scoped ones.
	scoped := l.Events("wc", 0)
	if len(scoped) != 3 {
		t.Fatalf("job filter dropped cluster-scoped events: got %d, want 3", len(scoped))
	}
	other := l.Events("other", 0)
	if len(other) != 1 || other[0].Kind != KindMembership {
		t.Fatalf("job filter kept foreign job events: %+v", other)
	}
	// since filter.
	late := l.Events("", 1015)
	if len(late) != 1 || late[0].Name != "member.join" {
		t.Fatalf("since filter wrong: %+v", late)
	}
}

func TestRingOverwriteAndDropped(t *testing.T) {
	l := New("node-a", Options{Clock: tickClock(0, 1), Capacity: 4})
	for i := 0; i < 10; i++ {
		l.Emit(KindTask, "map.finish", F{Task: fmt.Sprintf("m%d", i)})
	}
	evs := l.Events("", 0)
	if len(evs) != 4 {
		t.Fatalf("ring retained %d events, want 4", len(evs))
	}
	if evs[0].Task != "m6" || evs[3].Task != "m9" {
		t.Fatalf("ring did not keep the newest events: first=%s last=%s", evs[0].Task, evs[3].Task)
	}
	if got := l.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
}

func TestNilLogSafe(t *testing.T) {
	var l *Log
	l.Emit(KindJob, "job.submit", F{Job: "wc"}) // must not panic
	if l.Events("", 0) != nil || l.Dropped() != 0 || l.Node() != "" {
		t.Fatal("nil log not inert")
	}
}

func TestSeededDeterministicIDs(t *testing.T) {
	mk := func() []Event {
		l := New("node-a", Options{Clock: tickClock(100, 5), Seed: 42, Capacity: 8})
		l.Emit(KindJob, "job.submit", F{Job: "wc"})
		l.Emit(KindTask, "map.dispatch", F{Job: "wc", Task: "m0"})
		return l.Events("", 0)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed changes the ID base but nothing else.
	l2 := New("node-a", Options{Clock: tickClock(100, 5), Seed: 43, Capacity: 8})
	l2.Emit(KindJob, "job.submit", F{Job: "wc"})
	if l2.Events("", 0)[0].ID == a[0].ID {
		t.Fatal("seed did not perturb event IDs")
	}
}

func TestKindNames(t *testing.T) {
	for i := Kind(0); i < numKinds; i++ {
		name := i.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", i)
		}
		back, ok := KindFromString(name)
		if !ok || back != i {
			t.Fatalf("KindFromString(%q) = %v,%v want %v", name, back, ok, i)
		}
	}
	if _, ok := KindFromString("nope"); ok {
		t.Fatal("unknown kind resolved")
	}
}

func TestParseKinds(t *testing.T) {
	set, err := ParseKinds("task, shuffle")
	if err != nil {
		t.Fatal(err)
	}
	if !set[KindTask] || !set[KindShuffle] || set[KindJob] {
		t.Fatalf("ParseKinds wrong: %v", set)
	}
	if all, err := ParseKinds(""); err != nil || all != nil {
		t.Fatalf("empty spec: %v %v", all, err)
	}
	if _, err := ParseKinds("task,bogus"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestRenderFormatsFields(t *testing.T) {
	l := New("node-a", Options{Clock: tickClock(1_000_000, 500_000), Capacity: 8})
	l.Emit(KindJob, "job.submit", F{Job: "wc"})
	l.Emit(KindTask, "map.dispatch", F{Job: "wc", Task: "m0", Attempt: 2, Detail: "node-b"})
	out := Render(l.Events("", 0))
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "job.submit") || !strings.Contains(lines[0], "job=wc") {
		t.Errorf("line 0 missing fields: %q", lines[0])
	}
	if !strings.Contains(lines[1], "task=m0") || !strings.Contains(lines[1], "attempt=2") ||
		!strings.Contains(lines[1], "(node-b)") {
		t.Errorf("line 1 missing fields: %q", lines[1])
	}
	if !strings.HasPrefix(lines[0], "       0.000ms") {
		t.Errorf("offset not relative to first event: %q", lines[0])
	}
	if Render(nil) != "" {
		t.Error("empty timeline renders non-empty")
	}
}

func BenchmarkEmitRecorded(b *testing.B) {
	l := New("node-a", Options{Capacity: 1 << 12})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit(KindShuffle, "shuffle.batch", F{Job: "wc", Task: "m0"})
	}
}

// TestObserverSeesEveryRecordedEventOnce: the observer is called exactly
// once per recorded emission, in each goroutine's own emission order,
// and is not bounded by the ring (far smaller here than the number of
// emissions).
func TestObserverSeesEveryRecordedEventOnce(t *testing.T) {
	const goroutines, perG = 8, 200
	l := New("node-a", Options{Capacity: 16})
	var mu sync.Mutex
	seen := make(map[string][]int)
	l.SetObserver(func(e Event) {
		mu.Lock()
		seen[e.Task] = append(seen[e.Task], e.Attempt)
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(task string) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.Emit(KindTask, "map.finish", F{Task: task, Attempt: i})
			}
		}(fmt.Sprintf("g%d", g))
	}
	wg.Wait()
	l.SetObserver(nil)
	l.Emit(KindTask, "map.finish", F{Task: "after-removal"})
	if len(seen) != goroutines {
		t.Fatalf("observer saw %d emitters, want %d (removed observer leaked)", len(seen), goroutines)
	}
	for task, attempts := range seen {
		if len(attempts) != perG {
			t.Fatalf("%s: observer saw %d events, want %d", task, len(attempts), perG)
		}
		for i, a := range attempts {
			if a != i {
				t.Fatalf("%s: event %d arrived in position %d", task, a, i)
			}
		}
	}
}

// TestEmitWithoutObserverAllocatesOnlyTheEvent pins that the hook costs an
// unobserved log nothing: a recorded emission is still the one Event
// allocation it was before.
func TestEmitWithoutObserverAllocatesOnlyTheEvent(t *testing.T) {
	l := New("node-a", Options{Capacity: 64})
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Emit(KindShuffle, "shuffle.batch", F{Job: "wc", Task: "m0", Attempt: 3})
	}); allocs != 1 {
		t.Fatalf("recorded Emit allocates %.1f objects per call, want 1", allocs)
	}
}
