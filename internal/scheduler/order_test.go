package scheduler

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/kde"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// orderScenario drives s through one fixed run and returns its log: every
// assignment as (time, task, node, local, waited), every membership change,
// every change of NextDeadline and the final counters. Three jobs of
// unequal length arrive at different times on four nodes with unequal
// slots; most keys fall on three hot blocks, so Delay's waits expire and
// LAF re-cuts; the third node is removed mid-run, its running tasks are
// submitted again, and it rejoins later.
func orderScenario(s Scheduler, ids []hashing.NodeID) []string {
	for i, n := range []int{1, 3, 2, 2} {
		s.AddNode(ids[i], n)
	}
	jobs := []struct {
		name string
		n    int
		at   time.Duration
	}{{"b", 9, 0}, {"c", 23, 300 * time.Millisecond}, {"a", 14, 700 * time.Millisecond}}
	const step = 50 * time.Millisecond
	type run struct {
		a   Assignment
		end time.Duration
	}
	var (
		running   []run
		log       []string
		submitted int
		lastDL    = time.Duration(-1)
	)
	for now := time.Duration(0); now < time.Minute; now += step {
		for _, j := range jobs {
			if j.at != now {
				continue
			}
			for i := 0; i < j.n; i++ {
				block := fmt.Sprintf("%s%d", j.name, i)
				if i%3 != 0 {
					block = fmt.Sprintf("hot%d", i%3)
				}
				s.Submit(Task{Job: j.name, ID: fmt.Sprintf("%s%02d", j.name, i), HashKey: hashing.KeyOfString(block)}, now)
				submitted++
			}
		}
		switch now {
		case 800 * time.Millisecond:
			s.RemoveNode(ids[2])
			log = append(log, fmt.Sprintf("%v remove %s", now, ids[2]))
			kept := running[:0]
			for _, r := range running {
				if r.a.Node == ids[2] {
					s.Submit(r.a.Task, now)
					continue
				}
				kept = append(kept, r)
			}
			running = kept
		case 1400 * time.Millisecond:
			s.AddNode(ids[2], 2)
			log = append(log, fmt.Sprintf("%v add %s", now, ids[2]))
		}
		kept := running[:0]
		for _, r := range running {
			if r.end <= now {
				s.Release(r.a.Node)
				continue
			}
			kept = append(kept, r)
		}
		running = kept
		for _, a := range s.Dispatch(now) {
			log = append(log, fmt.Sprintf("%v %s/%s %s local=%t waited=%v", now, a.Task.Job, a.Task.ID, a.Node, a.Local, a.Waited))
			d := 150*time.Millisecond + time.Duration(hashing.KeyOfString(a.Task.ID)%4)*100*time.Millisecond
			running = append(running, run{a, now + d})
		}
		dl, ok := s.NextDeadline()
		if !ok {
			dl = -1
		}
		if dl != lastDL {
			log = append(log, fmt.Sprintf("%v deadline %v", now, dl))
			lastDL = dl
		}
		if submitted == 9+23+14 && s.Pending() == 0 && len(running) == 0 {
			break
		}
	}
	st := s.Stats()
	nodes := make([]string, 0, len(st.PerNode))
	for id, n := range st.PerNode {
		nodes = append(nodes, fmt.Sprintf("%s=%d", id, n))
	}
	sort.Strings(nodes)
	log = append(log, fmt.Sprintf("stats assigned=%d local=%d repartitions=%d expired=%d wait=%v per-node=%s",
		st.Assigned, st.LocalAssigns, st.Repartitions, st.DelayExpired, st.TotalWait, strings.Join(nodes, ",")))
	return log
}

// TestDispatchOrderGolden pins the exact assignment sequence of every
// policy over orderScenario. Run with -update to rewrite the golden file
// after a deliberate change of order.
func TestDispatchOrderGolden(t *testing.T) {
	policies := []struct {
		name string
		mk   func(*hashing.ChordRing) (Scheduler, error)
	}{
		{"laf", func(r *hashing.ChordRing) (Scheduler, error) {
			return NewLAF(LAFConfig{KDE: kde.Config{Bins: 64, Bandwidth: 2, Alpha: 0.5, Window: 8}}, r)
		}},
		{"delay", func(r *hashing.ChordRing) (Scheduler, error) {
			return NewDelay(DelayConfig{Wait: 400 * time.Millisecond}, r)
		}},
		{"fair", func(r *hashing.ChordRing) (Scheduler, error) { return NewFair(r) }},
	}
	var got strings.Builder
	for _, p := range policies {
		ring, ids := testRing(t, 4)
		s, err := p.mk(ring)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s\n", p.name)
		for _, line := range orderScenario(s, ids) {
			fmt.Fprintln(&got, line)
		}
	}
	path := filepath.Join("testdata", "dispatch_order.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("dispatch order differs at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("dispatch log has %d lines, golden file %d", len(gl), len(wl))
	}
}

// TestQueuedTaskFollowsRecut: a task looked up before an LAF re-cut is
// dispatched to its owner under the new table.
func TestQueuedTaskFollowsRecut(t *testing.T) {
	ring, ids := testRing(t, 4)
	s := newLAF(t, ring, ids, 1, LAFConfig{KDE: kde.Config{Bins: 64, Bandwidth: 1, Alpha: 1, Window: 16}})
	k := hashing.KeyOfString("x")
	before := s.RangeTable().Lookup(k)
	s.AddNode(before, 0)
	s.Submit(Task{Job: "j", ID: "x", HashKey: k}, 0)
	if got := s.Dispatch(0); len(got) != 0 {
		t.Fatalf("x dispatched to a full owner: %+v", got)
	}
	for i := 0; i < 16; i++ {
		s.Submit(Task{Job: "j", ID: fmt.Sprint(i), HashKey: hashing.Key(1 << 60)}, 0)
	}
	after := s.RangeTable().Lookup(k)
	if s.Stats().Repartitions != 1 || after == before {
		t.Fatalf("scenario did not move x's owner: %d re-cuts, owner %s -> %s", s.Stats().Repartitions, before, after)
	}
	got := s.Dispatch(time.Second)
	if len(got) == 0 || got[0].Task.ID != "x" || got[0].Node != after {
		t.Fatalf("after the re-cut x went to %+v, want %s", got, after)
	}
}

// TestQueuedTaskFollowsRemovedOwner: a task whose owner is removed goes to
// the owner under the re-cut table.
func TestQueuedTaskFollowsRemovedOwner(t *testing.T) {
	ring, ids := testRing(t, 4)
	s := newLAF(t, ring, ids, 1, DefaultLAFConfig())
	k := hashing.KeyOfString("x")
	before := s.RangeTable().Lookup(k)
	s.AddNode(before, 0)
	s.Submit(Task{Job: "j", ID: "x", HashKey: k}, 0)
	if got := s.Dispatch(0); len(got) != 0 {
		t.Fatalf("x dispatched to a full owner: %+v", got)
	}
	s.RemoveNode(before)
	after := s.RangeTable().Lookup(k)
	got := s.Dispatch(time.Second)
	if after == before || len(got) != 1 || got[0].Node != after || !got[0].Local {
		t.Fatalf("after removing %s, x went to %+v, want %s", before, got, after)
	}
}

// TestQueuedTaskWaitsForUnregisteredOwner: a task whose owner was not
// registered at Submit is dispatched once that owner registers, under LAF
// (the table does not change) and under Delay with unlimited wait.
func TestQueuedTaskWaitsForUnregisteredOwner(t *testing.T) {
	ring, ids := testRing(t, 4)
	k := hashing.KeyOfString("x")
	lafS, err := NewLAF(DefaultLAFConfig(), ring)
	if err != nil {
		t.Fatal(err)
	}
	delayS, err := NewDelay(DelayConfig{Wait: -1}, ring)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Scheduler{"laf": lafS, "delay": delayS} {
		owner := s.RangeTable().Lookup(k)
		for _, id := range ids {
			if id != owner {
				s.AddNode(id, 1)
			}
		}
		s.Submit(Task{Job: "j", ID: "x", HashKey: k}, 0)
		if got := s.Dispatch(0); len(got) != 0 {
			t.Fatalf("%s: x dispatched with its owner unregistered: %+v", name, got)
		}
		s.AddNode(owner, 1)
		got := s.Dispatch(time.Second)
		if len(got) != 1 || got[0].Node != owner || !got[0].Local {
			t.Fatalf("%s: once %s registered, x went to %+v", name, owner, got)
		}
	}
}
