package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"eclipsemr/internal/events"
	"eclipsemr/internal/scheduler"
	"eclipsemr/internal/transport"
)

// phaseFixture is an open map phase over pending tasks, with no cluster,
// driver or goroutine behind it: the transitions are plain methods.
type phaseFixture struct {
	*testing.T
	st    *runState
	tasks []*mapTask
	// fired counts, per cancel func handed to begin, how often it ran.
	fired []int
}

func newPhaseFixture(t *testing.T, generation, maxAttempts, tasks int) *phaseFixture {
	p := &phaseFixture{T: t, st: &runState{
		spec:        JobSpec{ID: "sm", MaxAttempts: maxAttempts},
		attemptBase: generation * attemptStride,
		open:        true,
		remaining:   tasks,
		outcome:     make(chan error, 1),
	}}
	for i := 0; i < tasks; i++ {
		p.tasks = append(p.tasks, &mapTask{
			t:       scheduler.Task{Job: "sm", ID: fmt.Sprintf("m%d", i)},
			attempt: p.st.attemptBase,
		})
	}
	return p
}

// begin starts an execution and returns its attempt and the index of its
// cancel func in fired.
func (p *phaseFixture) begin(mt *mapTask, x mapExec) (attempt, cancel int) {
	p.Helper()
	cancel = len(p.fired)
	p.fired = append(p.fired, 0)
	attempt, ok := p.st.begin(mt, x, func() { p.fired[cancel]++ }, time.Unix(0, 0))
	if !ok {
		p.Fatalf("begin(%s, kind %d) refused", mt.t.ID, x.kind)
	}
	return attempt, cancel
}

// outcomes drains what the phase delivered.
func (p *phaseFixture) outcomes() []error {
	var out []error
	for {
		select {
		case err := <-p.st.outcome:
			out = append(out, err)
		default:
			return out
		}
	}
}

var errApp = errors.New("map function failed")

// TestMapTaskStateMachine is the state × event table of DESIGN.md §7, row
// by row, against the task object alone.
func TestMapTaskStateMachine(t *testing.T) {
	dispatch := mapExec{kind: execDispatch, node: "n1"}
	rows := []struct {
		name string
		run  func(p *phaseFixture)
	}{
		{"hedge finishes first: the original's later success and failure change nothing, both cancels fired", func(p *phaseFixture) {
			mt := p.tasks[0]
			a, orig := p.begin(mt, dispatch)
			if !mt.overdue(time.Unix(1, 0), time.Second) || mt.overdue(time.Unix(0, 5e8), time.Second) {
				p.Fatal("overdue does not compare the running time to the threshold")
			}
			mt.hedged = true
			if mt.overdue(time.Unix(9, 0), time.Second) {
				p.Fatal("a hedged execution is overdue again")
			}
			ha, hedge := p.begin(mt, mapExec{kind: execHedge, node: "n2", attempt: a})
			if ha != a {
				p.Fatalf("hedge runs attempt %d, original %d: they must push identical spills", ha, a)
			}
			if !p.st.finish(mt, ha) {
				p.Fatal("first finisher lost")
			}
			if p.fired[orig] != 1 || p.fired[hedge] != 1 {
				p.Fatalf("cancels fired original=%d hedge=%d, want 1/1", p.fired[orig], p.fired[hedge])
			}
			if p.st.finish(mt, a) {
				p.Fatal("the original's later success won a second time")
			}
			if v, _ := p.st.fail(mt, a, errApp); v != lost {
				p.Fatalf("the original's later failure got verdict %d, want lost", v)
			}
			if mt.state != taskDone || mt.attempt != a || p.st.remaining != 1 {
				p.Fatalf("state=%d attempt=%d remaining=%d after duplicates, want done/%d/1", mt.state, mt.attempt, p.st.remaining, a)
			}
			if _, ok := p.st.begin(mt, dispatch, nil, time.Time{}); ok {
				p.Fatal("a finished task accepted another execution")
			}
		}},
		{"failure at st1Base+MaxAttempts-1 fails over, earlier ones retry; same budget in a resumed generation", func(p *phaseFixture) {
			mt := p.tasks[0]
			base := p.st.attemptBase
			for i := 0; i < 3; i++ {
				a, _ := p.begin(mt, dispatch)
				if a != base+i {
					p.Fatalf("execution %d runs attempt %d, want %d", i, a, base+i)
				}
				want := retry
				if i == 2 {
					want = failover
				}
				if v, _ := p.st.fail(mt, a, errApp); v != want {
					p.Fatalf("failure of attempt base+%d: verdict %d, want %d", i, v, want)
				}
				if mt.state != taskPending {
					p.Fatal("a failed task is not pending")
				}
			}
			// The walk's candidates each run a higher attempt and stay over
			// budget.
			a, _ := p.begin(mt, mapExec{kind: execFailover, node: "n2"})
			if v, _ := p.st.fail(mt, a, errApp); a != base+3 || v != failover {
				p.Fatalf("failover candidate: attempt %d verdict %d, want %d/failover", a, v, base+3)
			}
		}},
		{"unreachable node is evicted, application error gives the slot back", func(p *phaseFixture) {
			mt := p.tasks[0]
			a, _ := p.begin(mt, dispatch)
			if _, evict := p.st.fail(mt, a, fmt.Errorf("call n1: %w", transport.ErrUnreachable)); !evict {
				p.Fatal("unreachable node not evicted")
			}
			b, _ := p.begin(mt, dispatch)
			if _, evict := p.st.fail(mt, b, errApp); evict {
				p.Fatal("application error evicted the node")
			}
			// The slot decision does not depend on whether the failure counts.
			if v, evict := p.st.fail(mt, a, transport.ErrUnreachable); v != lost || !evict {
				p.Fatalf("stale unreachable failure: verdict %d evict %v, want lost/true", v, evict)
			}
		}},
		{"a failure supersedes its hedge: the hedge is aborted and can neither begin nor win", func(p *phaseFixture) {
			mt := p.tasks[0]
			a, _ := p.begin(mt, dispatch)
			_, hedge := p.begin(mt, mapExec{kind: execHedge, node: "n2", attempt: a})
			if v, _ := p.st.fail(mt, a, errApp); v != retry {
				p.Fatalf("verdict %d, want retry", v)
			}
			if p.fired[hedge] != 1 {
				p.Fatal("the failed attempt's hedge was not aborted")
			}
			b, _ := p.begin(mt, dispatch)
			if p.st.finish(mt, a) {
				p.Fatal("a hedge of the superseded attempt completed the task")
			}
			if _, ok := p.st.begin(mt, mapExec{kind: execHedge, node: "n2", attempt: a}, nil, time.Time{}); ok {
				p.Fatal("a hedge of the superseded attempt began")
			}
			if !p.st.finish(mt, b) || b != a+1 {
				p.Fatalf("the retry (attempt %d, want %d) did not complete the task", b, a+1)
			}
		}},
		{"failover exhausted fails the phase exactly once, even if a hedge completes concurrently", func(p *phaseFixture) {
			mt := p.tasks[0]
			mt.attempt += 2 // budget spent
			a, _ := p.begin(mt, mapExec{kind: execFailover, node: "n2"})
			p.begin(mt, mapExec{kind: execHedge, node: "n3", attempt: a})
			if v, _ := p.st.fail(mt, a, errApp); v != failover {
				p.Fatalf("verdict %d, want failover", v)
			}
			exhausted := errors.New("failover exhausted")
			p.st.end(exhausted)
			if p.st.finish(mt, a) {
				p.Fatal("hedge completed a task of a failed phase")
			}
			p.st.end(errors.New("driver closed"))
			if got := p.outcomes(); len(got) != 1 || got[0] != exhausted {
				p.Fatalf("outcomes %v, want exactly [%v]", got, exhausted)
			}
		}},
		{"the last finisher ends the phase exactly once", func(p *phaseFixture) {
			for _, mt := range p.tasks {
				a, _ := p.begin(mt, dispatch)
				if len(p.outcomes()) != 0 {
					p.Fatal("outcome delivered with tasks unfinished")
				}
				p.st.finish(mt, a)
			}
			p.st.end(errors.New("cancelled"))
			if got := p.outcomes(); len(got) != 1 || got[0] != nil {
				p.Fatalf("outcomes %v, want exactly [nil]", got)
			}
		}},
		{"rearm lands strictly above attemptBase and the task's last attempt", func(p *phaseFixture) {
			ran, journaled := p.tasks[0], p.tasks[1]
			a, _ := p.begin(ran, dispatch)
			p.st.fail(ran, a, errApp)
			a, _ = p.begin(ran, dispatch)
			p.st.finish(ran, a)
			journaled.state = taskDone // as adopted: done in an earlier generation
			for _, mt := range p.tasks {
				last := mt.attempt
				mt.rearm()
				if mt.attempt <= p.st.attemptBase || mt.attempt <= last || mt.state != taskPending {
					p.Fatalf("%s rearmed to attempt %d state %d; base %d, last %d", mt.t.ID, mt.attempt, mt.state, p.st.attemptBase, last)
				}
			}
			// The recovery phase: a straggler of the superseded attempt
			// changes nothing.
			p.st.open, p.st.remaining = true, 2
			b, _ := p.begin(ran, dispatch)
			if p.st.finish(ran, a) || !p.st.finish(ran, b) {
				p.Fatal("recovery phase settled on the wrong attempt")
			}
		}},
		{"a completion after the phase failed or the driver closed changes nothing", func(p *phaseFixture) {
			running, queued := p.tasks[0], p.tasks[1]
			a, _ := p.begin(running, dispatch)
			p.st.end(context.Canceled)
			if p.st.finish(running, a) {
				p.Fatal("completion counted after the phase ended")
			}
			if v, _ := p.st.fail(running, a, errApp); v != lost {
				p.Fatalf("failure after the phase ended: verdict %d, want lost", v)
			}
			if _, ok := p.st.begin(queued, dispatch, nil, time.Time{}); ok {
				p.Fatal("a task began after the phase ended")
			}
			if running.state != taskInFlight || running.attempt != a || p.st.remaining != 2 {
				p.Fatalf("state=%d attempt=%d remaining=%d, want untouched", running.state, running.attempt, p.st.remaining)
			}
			if got := p.outcomes(); len(got) != 1 || got[0] != context.Canceled {
				p.Fatalf("outcomes %v, want exactly [context.Canceled]", got)
			}
		}},
	}
	for _, row := range rows {
		for _, generation := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/gen%d", row.name, generation), func(t *testing.T) {
				row.run(newPhaseFixture(t, generation, 3, 2))
			})
		}
	}
}

// flakyMapFailures is how many more calls of test-flaky-map fail.
var flakyMapFailures atomic.Int32

func init() {
	Register("test-flaky-map", App{
		Map: func(p Params, input []byte, emit Emit) error {
			if flakyMapFailures.Add(-1) >= 0 {
				return errors.New("deliberate flaky map failure")
			}
			return testWordCountMap(p, input, emit)
		},
		Reduce: testSumReduce,
	})
}

// TestMapTaskFailoverAttemptIsTheOneThatRan pins that a task completed by
// failover reports, journals and stores one and the same attempt: the
// map.failover event's, every stored segment's, map.finish's and the
// journal's.
func TestMapTaskFailoverAttemptIsTheOneThatRan(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	text, want := wideCorpus(60, 3)
	ec.upload(t, "flaky.txt", text, 1<<20) // one block, one map task
	const maxAttempts = 3
	flakyMapFailures.Store(maxAttempts)
	defer flakyMapFailures.Store(0)

	attempts := map[string][]int{}
	ec.events.SetObserver(func(e events.Event) {
		switch e.Name {
		case "map.dispatch", "map.failover", "map.finish":
			attempts[e.Name] = append(attempts[e.Name], e.Attempt)
		}
	})
	spec := JobSpec{ID: "flaky-1", App: "test-flaky-map", Inputs: []string{"flaky.txt"}, User: "tester", MaxAttempts: maxAttempts}
	res, err := ec.driver.Run(spec)
	ec.events.SetObserver(nil)
	if err != nil {
		t.Fatalf("job did not fail over: %v", err)
	}
	if got := fmt.Sprint(attempts["map.dispatch"]); got != "[0 1 2]" {
		t.Fatalf("dispatched attempts %s, want [0 1 2]", got)
	}
	if got := fmt.Sprint(attempts["map.failover"]); got != "[3]" {
		t.Fatalf("failover attempts %s, want [3]", got)
	}
	if got := fmt.Sprint(attempts["map.finish"]); got != "[3]" {
		t.Fatalf("map.finish attempts %s, want [3]: the attempt that ran", got)
	}
	task := spec.ID + "/m/flaky.txt/0"
	segments := 0
	for _, id := range ec.ids {
		for part := range ec.ids {
			for _, seg := range ec.fs[id].Store().ReadTaggedSegments(spec.Namespace(), partitionName(part)) {
				if seg.Task != task {
					t.Fatalf("segment of unknown task %q", seg.Task)
				}
				if seg.Attempt != 3 {
					t.Fatalf("stored segment carries attempt %d, want 3", seg.Attempt)
				}
				segments++
			}
		}
	}
	if segments == 0 {
		t.Fatal("no stored segment found; the test exercises nothing")
	}
	j, err := ec.driver.loadJournal(context.Background(), spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.Attempts[task] != 3 {
		t.Fatalf("journal records attempt %d, want 3", j.Attempts[task])
	}
	if got := ec.driver.Metrics().Snapshot().Get("mr.driver.map_failovers"); got != 1 {
		t.Fatalf("map_failovers = %d, want 1", got)
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)
}
