package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/kde"
)

// testRing builds a ring of n workers named w00..w(n-1).
func testRing(t testing.TB, n int) (*hashing.ChordRing, []hashing.NodeID) {
	t.Helper()
	r := hashing.NewChordRing()
	ids := make([]hashing.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = hashing.NodeID(fmt.Sprintf("w%02d", i))
		if err := r.AddNode(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	return r, ids
}

func newLAF(t testing.TB, ring *hashing.ChordRing, ids []hashing.NodeID, slots int, cfg LAFConfig) *LAF {
	t.Helper()
	s, err := NewLAF(cfg, ring)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		s.AddNode(id, slots)
	}
	return s
}

func TestLAFDispatchesToRangeOwner(t *testing.T) {
	ring, ids := testRing(t, 4)
	s := newLAF(t, ring, ids, 2, DefaultLAFConfig())
	k := hashing.KeyOfString("some-block")
	want := s.RangeTable().Lookup(k)
	s.Submit(Task{Job: "j", ID: "t0", HashKey: k}, 0)
	as := s.Dispatch(0)
	if len(as) != 1 {
		t.Fatalf("Dispatch returned %d assignments", len(as))
	}
	if as[0].Node != want || !as[0].Local {
		t.Fatalf("assignment = %+v, want node %s local", as[0], want)
	}
}

func TestLAFTaskWaitsForItsOwner(t *testing.T) {
	ring, ids := testRing(t, 3)
	s := newLAF(t, ring, ids, 1, DefaultLAFConfig())
	k := hashing.KeyOfString("hot")
	owner := s.RangeTable().Lookup(k)
	// Fill the owner's only slot.
	s.Submit(Task{ID: "t0", HashKey: k}, 0)
	if got := s.Dispatch(0); len(got) != 1 {
		t.Fatalf("first dispatch = %d", len(got))
	}
	// Second task for the same key must wait even though other servers
	// are idle — that is the Algorithm 1 while-loop.
	s.Submit(Task{ID: "t1", HashKey: k}, 0)
	if got := s.Dispatch(time.Second); len(got) != 0 {
		t.Fatalf("task stole a non-owner slot: %+v", got)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	s.Release(owner)
	got := s.Dispatch(2 * time.Second)
	if len(got) != 1 || got[0].Node != owner {
		t.Fatalf("after release, dispatch = %+v", got)
	}
	if got[0].Waited != 2*time.Second {
		t.Fatalf("Waited = %v", got[0].Waited)
	}
}

func TestLAFRepartitionNarrowsHotRange(t *testing.T) {
	ring, ids := testRing(t, 4)
	cfg := LAFConfig{KDE: kde.Config{Bins: 512, Bandwidth: 4, Alpha: 1, Window: 64}}
	s := newLAF(t, ring, ids, 64*1024, cfg)
	hot := hashing.Key(1 << 62) // fixed hot key at 1/4 of the space
	before, _, ok := s.RangeTable().ServerRange(s.RangeTable().Lookup(hot))
	_ = before
	if !ok {
		t.Fatal("hot key has no owner")
	}
	for i := 0; i < 256; i++ {
		s.Submit(Task{ID: fmt.Sprint(i), HashKey: hot}, 0)
	}
	s.Dispatch(0)
	st := s.Stats()
	if st.Repartitions == 0 {
		t.Fatal("no repartition after full windows")
	}
	// After repartitioning on a single hot key, the owner's range should
	// be tiny: the three interior bounds collapse around the hot key.
	tab := s.RangeTable()
	bounds := tab.Bounds()
	span := float64(uint64(bounds[len(bounds)-1] - bounds[1]))
	if span > float64(hashing.MaxKey)/64 {
		t.Fatalf("interior bounds did not collapse around hot key: %v", bounds)
	}
}

func TestLAFAlphaZeroKeepsStaticRanges(t *testing.T) {
	ring, ids := testRing(t, 4)
	cfg := LAFConfig{KDE: kde.Config{Bins: 64, Bandwidth: 1, Alpha: 0, Window: 4}}
	s := newLAF(t, ring, ids, 1024, cfg)
	before := s.RangeTable().Bounds()
	for i := 0; i < 100; i++ {
		s.Submit(Task{ID: fmt.Sprint(i), HashKey: hashing.Key(1 << 62)}, 0)
	}
	s.Dispatch(0)
	after := s.RangeTable().Bounds()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("alpha=0 ranges changed")
		}
	}
	if s.Stats().Repartitions != 0 {
		t.Fatal("alpha=0 repartitioned")
	}
}

func TestLAFAddRemoveNode(t *testing.T) {
	ring, ids := testRing(t, 3)
	s := newLAF(t, ring, ids, 1, DefaultLAFConfig())
	s.AddNode("w99", 4)
	if tab := s.RangeTable(); tab.Len() != 4 {
		t.Fatalf("table has %d servers after AddNode", tab.Len())
	}
	s.RemoveNode("w99")
	if tab := s.RangeTable(); tab.Len() != 3 {
		t.Fatalf("table has %d servers after RemoveNode", tab.Len())
	}
	// Re-adding an existing node just updates slots.
	s.AddNode(ids[0], 7)
	if tab := s.RangeTable(); tab.Len() != 3 {
		t.Fatalf("re-add grew the table to %d", tab.Len())
	}
}

func TestLAFReleaseUnknownNodeIgnored(t *testing.T) {
	ring, ids := testRing(t, 2)
	s := newLAF(t, ring, ids, 1, DefaultLAFConfig())
	s.Release("nope") // must not panic or create slots
	if s.slots.known("nope") {
		t.Fatal("Release created slots for unknown node")
	}
}

func newDelay(t testing.TB, ring *hashing.ChordRing, ids []hashing.NodeID, slots int, wait time.Duration) *Delay {
	t.Helper()
	s, err := NewDelay(DelayConfig{Wait: wait}, ring)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		s.AddNode(id, slots)
	}
	return s
}

func TestDelayPrefersOwnerThenFallsBack(t *testing.T) {
	ring, ids := testRing(t, 3)
	s := newDelay(t, ring, ids, 1, 5*time.Second)
	k := hashing.KeyOfString("data")
	owner := s.RangeTable().Lookup(k)
	s.Submit(Task{ID: "t0", HashKey: k}, 0)
	as := s.Dispatch(0)
	if len(as) != 1 || as[0].Node != owner {
		t.Fatalf("first dispatch = %+v", as)
	}
	// Owner now busy; next same-key task waits. Before any Dispatch pass
	// the task has never been skipped, so no deadline exists yet.
	s.Submit(Task{ID: "t1", HashKey: k}, time.Second)
	if _, ok := s.NextDeadline(); ok {
		t.Fatal("deadline exists before the task was ever skipped")
	}
	// This pass skips the task (other servers are idle): the wait clock
	// starts now, at t=2s.
	if got := s.Dispatch(2 * time.Second); len(got) != 0 {
		t.Fatalf("dispatched before delay expired: %+v", got)
	}
	dl, ok := s.NextDeadline()
	if !ok || dl != 7*time.Second {
		t.Fatalf("NextDeadline = %v, %v", dl, ok)
	}
	// After the 5 s skip window the task goes to another (free) server.
	got := s.Dispatch(7 * time.Second)
	if len(got) != 1 {
		t.Fatalf("dispatch after deadline = %+v", got)
	}
	if got[0].Node == owner || got[0].Local {
		t.Fatalf("fallback assignment wrong: %+v", got[0])
	}
	if s.Stats().DelayExpired != 1 {
		t.Fatalf("DelayExpired = %d", s.Stats().DelayExpired)
	}
}

func TestDelayUnlimitedWaitNeverFallsBack(t *testing.T) {
	ring, ids := testRing(t, 3)
	s := newDelay(t, ring, ids, 1, -1)
	k := hashing.KeyOfString("data")
	s.Submit(Task{ID: "t0", HashKey: k}, 0)
	s.Dispatch(0)
	s.Submit(Task{ID: "t1", HashKey: k}, 0)
	if got := s.Dispatch(time.Hour); len(got) != 0 {
		t.Fatalf("unlimited-wait task dispatched elsewhere: %+v", got)
	}
	if _, ok := s.NextDeadline(); ok {
		t.Fatal("unlimited wait reported a deadline")
	}
}

func TestDelayNoDeadlineWhenQueueEmpty(t *testing.T) {
	ring, ids := testRing(t, 2)
	s := newDelay(t, ring, ids, 1, time.Second)
	if _, ok := s.NextDeadline(); ok {
		t.Fatal("empty queue reported a deadline")
	}
}

func TestFairIgnoresLocality(t *testing.T) {
	ring, ids := testRing(t, 4)
	s, err := NewFair(ring)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		s.AddNode(id, 2)
	}
	// Eight same-key tasks spread across all nodes regardless of key.
	k := hashing.KeyOfString("hot")
	for i := 0; i < 8; i++ {
		s.Submit(Task{ID: fmt.Sprint(i), HashKey: k}, 0)
	}
	as := s.Dispatch(0)
	if len(as) != 8 {
		t.Fatalf("dispatched %d of 8", len(as))
	}
	st := s.Stats()
	for _, id := range ids {
		if st.PerNode[id] != 2 {
			t.Fatalf("node %s got %d tasks, want 2", id, st.PerNode[id])
		}
	}
	if st.LoadStdDev() != 0 {
		t.Fatalf("perfect balance expected, stddev = %g", st.LoadStdDev())
	}
}

func TestFairPendingWhenSaturated(t *testing.T) {
	ring, ids := testRing(t, 2)
	s, _ := NewFair(ring)
	for _, id := range ids {
		s.AddNode(id, 1)
	}
	for i := 0; i < 5; i++ {
		s.Submit(Task{ID: fmt.Sprint(i)}, 0)
	}
	as := s.Dispatch(0)
	if len(as) != 2 || s.Pending() != 3 {
		t.Fatalf("dispatched=%d pending=%d", len(as), s.Pending())
	}
	s.Release(ids[0])
	if as = s.Dispatch(0); len(as) != 1 {
		t.Fatalf("after release dispatched %d", len(as))
	}
}

// TestLAFBalancesSkewBetterThanDelay reproduces the §III-C load-balance
// claim: under a skewed key distribution LAF's per-node assignment
// standard deviation is far below Delay's (paper: 4.07 vs 13.07). The
// Delay scheduler here waits indefinitely for the static range owner —
// the paper's description of locality-sticky scheduling (the timed
// fallback is exercised in TestDelayPrefersOwnerThenFallsBack; the full
// timing interplay is the simulator's Figure 7 experiment).
func TestLAFBalancesSkewBetterThanDelay(t *testing.T) {
	const (
		nodes = 8
		slots = 4
		tasks = 2000
	)
	run := func(s Scheduler) float64 {
		rng := rand.New(rand.NewSource(77))
		now := time.Duration(0)
		running := map[hashing.NodeID]int{}
		submitted, completed := 0, 0
		inFlight := []Assignment{}
		for completed < tasks {
			for submitted < tasks && len(inFlight) < nodes*slots*2 {
				// Two-normal-merged skew as in Figure 7's grep workload.
				var center float64
				if rng.Intn(4) < 3 {
					center = 0.2
				} else {
					center = 0.7
				}
				pos := math.Mod(center+rng.NormFloat64()*0.03+1, 1)
				s.Submit(Task{ID: fmt.Sprint(submitted), HashKey: hashing.Key(pos * float64(math.MaxUint64))}, now)
				submitted++
			}
			for _, a := range s.Dispatch(now) {
				running[a.Node]++
				inFlight = append(inFlight, a)
			}
			// Complete one task per tick (deterministic round-robin).
			if len(inFlight) > 0 {
				a := inFlight[0]
				inFlight = inFlight[1:]
				running[a.Node]--
				s.Release(a.Node)
				completed++
			}
			now += 10 * time.Millisecond
		}
		return s.Stats().LoadStdDev()
	}

	ring, ids := testRing(t, nodes)
	laf := newLAF(t, ring, ids, slots, LAFConfig{KDE: kde.Config{Bins: 1024, Bandwidth: 32, Alpha: 0.5, Window: 128}})
	delay := newDelay(t, ring, ids, slots, -1)
	lafStd := run(laf)
	delayStd := run(delay)
	if lafStd >= delayStd/2 {
		t.Fatalf("LAF stddev %.2f not clearly better than Delay %.2f", lafStd, delayStd)
	}
	mean := float64(tasks) / nodes
	if lafStd > mean/3 {
		t.Fatalf("LAF stddev %.2f too high relative to mean %.1f", lafStd, mean)
	}
	t.Logf("load stddev: LAF=%.2f Delay=%.2f (mean %.0f tasks/node)", lafStd, delayStd, mean)
}

func TestStatsLocalityRatio(t *testing.T) {
	var s Stats
	if s.LocalityRatio() != 0 {
		t.Fatal("empty locality ratio != 0")
	}
	s = Stats{Assigned: 4, LocalAssigns: 3}
	if s.LocalityRatio() != 0.75 {
		t.Fatalf("LocalityRatio = %g", s.LocalityRatio())
	}
}

func TestLoadStdDevEmpty(t *testing.T) {
	var s Stats
	if s.LoadStdDev() != 0 {
		t.Fatal("empty LoadStdDev != 0")
	}
}

func TestSchedulerInterfaceCompliance(t *testing.T) {
	ring, ids := testRing(t, 2)
	for name, mk := range map[string]func() Scheduler{
		"laf":   func() Scheduler { s, _ := NewLAF(DefaultLAFConfig(), ring); return s },
		"delay": func() Scheduler { s, _ := NewDelay(DefaultDelayConfig(), ring); return s },
		"fair":  func() Scheduler { s, _ := NewFair(ring); return s },
	} {
		s := mk()
		for _, id := range ids {
			s.AddNode(id, 1)
		}
		s.Submit(Task{ID: "x", HashKey: 42}, 0)
		as := s.Dispatch(0)
		if len(as) != 1 {
			t.Errorf("%s: dispatched %d", name, len(as))
		}
		s.Release(as[0].Node)
		if s.Pending() != 0 {
			t.Errorf("%s: pending %d", name, s.Pending())
		}
		if st := s.Stats(); st.Assigned != 1 {
			t.Errorf("%s: assigned %d", name, st.Assigned)
		}
	}
}

// TestSchedulersStartAlignedWithRing: every scheduler cuts its initial
// table from the ring, so at startup a task keyed into a member's arc is
// local on exactly that member, whatever the ring's size. LAF and Delay
// place each such task there; Fair places by free slots and reports
// locality against the same table.
func TestSchedulersStartAlignedWithRing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 40} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ring, ids := testRing(t, n)
			for _, kind := range []string{"laf", "delay", "fair"} {
				t.Run(kind, func(t *testing.T) {
					var s Scheduler
					var err error
					switch kind {
					case "laf":
						s, err = NewLAF(DefaultLAFConfig(), ring)
					case "delay":
						s, err = NewDelay(DefaultDelayConfig(), ring)
					case "fair":
						s, err = NewFair(ring)
					}
					if err != nil {
						t.Fatal(err)
					}
					table := s.RangeTable()
					if table.Len() != n {
						t.Fatalf("table has %d ranges for %d members", table.Len(), n)
					}
					want := make(map[hashing.Key]hashing.NodeID, n)
					for _, id := range ids {
						s.AddNode(id, 1)
						start, _, err := ring.RangeOf(id)
						if err != nil {
							t.Fatal(err)
						}
						k := start + 1 // inside id's arc (pred, pos]
						if got := table.Lookup(k); got != id {
							t.Fatalf("table sends %v to %s, ring owner is %s", k, got, id)
						}
						want[k] = id
						s.Submit(Task{Job: "j", ID: string(id), HashKey: k}, 0)
					}
					as := s.Dispatch(0)
					if len(as) != n || s.Pending() != 0 {
						t.Fatalf("dispatched %d of %d tasks, %d pending", len(as), n, s.Pending())
					}
					for _, a := range as {
						local := a.Node == want[a.Task.HashKey]
						if a.Local != local {
							t.Fatalf("assignment %+v reports Local=%v, owner is %s", a, a.Local, want[a.Task.HashKey])
						}
						if kind != "fair" && !local {
							t.Fatalf("assignment %+v not on its arc's owner %s", a, want[a.Task.HashKey])
						}
					}
				})
			}
		})
	}
}

func TestNewSchedulersRejectEmptyRing(t *testing.T) {
	empty := hashing.NewChordRing()
	if _, err := NewLAF(DefaultLAFConfig(), empty); err == nil {
		t.Fatal("NewLAF accepted empty ring")
	}
	if _, err := NewDelay(DefaultDelayConfig(), empty); err == nil {
		t.Fatal("NewDelay accepted empty ring")
	}
	if _, err := NewFair(empty); err == nil {
		t.Fatal("NewFair accepted empty ring")
	}
}

// TestSlotsCountsCapacity: Slots is every registered node's capacity
// together, under every policy: a re-registration replaces a node's count,
// a removal drops it, and tasks in flight change nothing.
func TestSlotsCountsCapacity(t *testing.T) {
	ring, ids := testRing(t, 3)
	laf, err := NewLAF(DefaultLAFConfig(), ring)
	if err != nil {
		t.Fatal(err)
	}
	delay, err := NewDelay(DefaultDelayConfig(), ring)
	if err != nil {
		t.Fatal(err)
	}
	fair, err := NewFair(ring)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Scheduler{"laf": laf, "delay": delay, "fair": fair} {
		if got := s.Slots(); got != 0 {
			t.Fatalf("%s: %d slots before any node registered", name, got)
		}
		s.AddNode(ids[0], 4)
		s.AddNode(ids[1], 2)
		s.AddNode(ids[2], 2)
		s.Submit(Task{Job: "j", ID: "t0", HashKey: hashing.KeyOfString("k")}, 0)
		if as := s.Dispatch(0); len(as) != 1 {
			t.Fatalf("%s: %d assignments, want 1", name, len(as))
		}
		if got := s.Slots(); got != 8 {
			t.Fatalf("%s: %d slots with a task in flight, want 8", name, got)
		}
		s.AddNode(ids[0], 3)
		s.RemoveNode(ids[1])
		if got := s.Slots(); got != 5 {
			t.Fatalf("%s: %d slots after a re-registration and a removal, want 5", name, got)
		}
	}
}
