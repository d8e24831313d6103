package sim

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g want %g (±%g)", msg, got, want, tol)
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(2, func() { order = append(order, 2) })
	s.At(1, func() { order = append(order, 1) })
	s.At(1, func() { order = append(order, 10) }) // same time: FIFO
	s.After(3, func() { order = append(order, 3) })
	end := s.Run()
	if end != 3 {
		t.Fatalf("end = %g", end)
	}
	want := []int{1, 10, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestEventsScheduleMoreEvents(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.After(1, tick)
		}
	}
	s.After(1, tick)
	end := s.Run()
	if count != 5 || end != 5 {
		t.Fatalf("count=%d end=%g", count, end)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func() { fired++ })
	s.At(5, func() { fired++ })
	s.RunUntil(3)
	if fired != 1 || s.Now() != 3 {
		t.Fatalf("fired=%d now=%g", fired, s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

func TestPastEventClamped(t *testing.T) {
	s := New()
	s.At(5, func() {
		s.At(1, func() {}) // in the past: runs "now"
	})
	end := s.Run()
	if end != 5 {
		t.Fatalf("end = %g", end)
	}
}

func TestClockAndDuration(t *testing.T) {
	s := New()
	s.At(1.5, func() {})
	s.Run()
	if got := s.Clock()().UnixNano(); got != 1_500_000_000 {
		t.Fatalf("clock = %d", got)
	}
	if Duration(2.5).Seconds() != 2.5 {
		t.Fatal("Duration wrong")
	}
	if Seconds(Duration(0.25)) != 0.25 {
		t.Fatal("Seconds wrong")
	}
}

func TestQueueSerialFCFS(t *testing.T) {
	s := New()
	q := NewQueue(s, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		q.Submit(2, func() { finish = append(finish, s.Now()) })
	}
	if q.InService() != 1 || q.QueueLen() != 2 {
		t.Fatalf("in-service=%d queued=%d", q.InService(), q.QueueLen())
	}
	s.Run()
	want := []Time{2, 4, 6}
	for i := range want {
		almost(t, finish[i], want[i], 1e-9, "serial completion")
	}
	almost(t, q.Busy, 6, 1e-9, "busy integral")
}

func TestQueueParallelServers(t *testing.T) {
	s := New()
	q := NewQueue(s, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		q.Submit(3, func() { finish = append(finish, s.Now()) })
	}
	s.Run()
	// Two at a time: completions at 3,3,6,6.
	almost(t, finish[0], 3, 1e-9, "c0")
	almost(t, finish[1], 3, 1e-9, "c1")
	almost(t, finish[2], 6, 1e-9, "c2")
	almost(t, finish[3], 6, 1e-9, "c3")
}

func TestQueueZeroAndNegativeService(t *testing.T) {
	s := New()
	q := NewQueue(s, 1)
	fired := false
	q.Submit(-5, func() { fired = true })
	s.Run()
	if !fired || s.Now() != 0 {
		t.Fatalf("fired=%v now=%g", fired, s.Now())
	}
	if NewQueue(s, 0).servers != 1 {
		t.Fatal("zero servers not clamped")
	}
}

func TestFlowSingleResource(t *testing.T) {
	s := New()
	n := NewFlowNet(s)
	n.AddResource("nic", 100) // 100 B/s
	var done Time
	n.StartFlow(500, []string{"nic"}, func() { done = s.Now() })
	s.Run()
	almost(t, done, 5, 1e-6, "single flow")
	almost(t, n.Transferred, 500, 1e-6, "transferred bytes")
}

func TestFlowFairSharing(t *testing.T) {
	s := New()
	n := NewFlowNet(s)
	n.AddResource("nic", 100)
	var t1, t2 Time
	// Two equal flows share the link: each runs at 50 B/s.
	n.StartFlow(100, []string{"nic"}, func() { t1 = s.Now() })
	n.StartFlow(100, []string{"nic"}, func() { t2 = s.Now() })
	s.Run()
	almost(t, t1, 2, 1e-6, "flow1")
	almost(t, t2, 2, 1e-6, "flow2")
}

func TestFlowDepartureSpeedsUpSurvivor(t *testing.T) {
	s := New()
	n := NewFlowNet(s)
	n.AddResource("nic", 100)
	var tShort, tLong Time
	n.StartFlow(100, []string{"nic"}, func() { tShort = s.Now() })
	n.StartFlow(300, []string{"nic"}, func() { tLong = s.Now() })
	s.Run()
	// Shared at 50 B/s until the short flow ends at t=2; the long flow has
	// 200 B left and finishes 2 s later at full rate.
	almost(t, tShort, 2, 1e-6, "short flow")
	almost(t, tLong, 4, 1e-6, "long flow")
}

func TestFlowArrivalSlowsExisting(t *testing.T) {
	s := New()
	n := NewFlowNet(s)
	n.AddResource("nic", 100)
	var t1 Time
	n.StartFlow(200, []string{"nic"}, func() { t1 = s.Now() })
	s.At(1, func() {
		n.StartFlow(1000, []string{"nic"}, nil)
	})
	s.Run()
	// First second at 100 B/s leaves 100 B; then shared 50 B/s for 2 s.
	almost(t, t1, 3, 1e-6, "slowed flow")
}

func TestFlowMaxMinAcrossResources(t *testing.T) {
	s := New()
	n := NewFlowNet(s)
	n.AddResource("a", 100)
	n.AddResource("b", 30)
	var tA, tAB Time
	// Flow 1 uses only a; flow 2 crosses a and the narrow b.
	n.StartFlow(300, []string{"a"}, func() { tA = s.Now() })
	n.StartFlow(30, []string{"a", "b"}, func() { tAB = s.Now() })
	s.Run()
	// Max-min: flow 2 bottlenecked at 30 B/s on b, so it gets 30; flow 1
	// gets the remaining 70 on a. Flow 2 finishes at t=1; flow 1 has 230
	// left, then runs at 100 B/s: 1 + 2.3 = 3.3.
	almost(t, tAB, 1, 1e-6, "cross flow")
	almost(t, tA, 3.3, 1e-6, "wide flow")
}

func TestFlowUnknownResourceUnconstrained(t *testing.T) {
	s := New()
	n := NewFlowNet(s)
	var done bool
	n.StartFlow(1e12, []string{"ghost"}, func() { done = true })
	s.Run()
	if !done || s.Now() != 0 {
		t.Fatalf("done=%v now=%g", done, s.Now())
	}
}

func TestFlowZeroSize(t *testing.T) {
	done := false
	// A nil done is legal, as it is for a sized flow.
	for _, fn := range []func(){func() { done = true }, nil} {
		s := New()
		n := NewFlowNet(s)
		n.AddResource("nic", 10)
		n.StartFlow(0, []string{"nic"}, fn)
		s.Run()
		if fn != nil && !done {
			t.Fatal("zero-size flow never completed")
		}
	}
}

func TestFlowManyConcurrent(t *testing.T) {
	s := New()
	n := NewFlowNet(s)
	n.AddResource("nic", 1000)
	completed := 0
	for i := 0; i < 50; i++ {
		n.StartFlow(100, []string{"nic"}, func() { completed++ })
	}
	end := s.Run()
	if completed != 50 {
		t.Fatalf("completed = %d", completed)
	}
	// 50 flows × 100 B over a 1000 B/s link = 5 s total.
	almost(t, end, 5, 1e-3, "aggregate completion")
	if n.ActiveFlows() != 0 {
		t.Fatalf("active flows = %d", n.ActiveFlows())
	}
}

// TestFlowLargeScaleStability exercises the float-residue fallback with
// paper-scale sizes (hundreds of GB) and many staggered arrivals.
func TestFlowLargeScaleStability(t *testing.T) {
	s := New()
	n := NewFlowNet(s)
	for i := 0; i < 8; i++ {
		n.AddResource(string(rune('a'+i)), 125e6) // 1 Gb/s NICs
	}
	completed := 0
	for i := 0; i < 200; i++ {
		src := string(rune('a' + i%8))
		dst := string(rune('a' + (i+3)%8))
		size := 128e6 + float64(i)*1e5
		at := float64(i) * 0.01
		s.At(at, func() {
			n.StartFlow(size, []string{src, dst}, func() { completed++ })
		})
	}
	s.Run()
	if completed != 200 {
		t.Fatalf("completed = %d of 200", completed)
	}
}

// flowTimeline drives a FlowNet shaped like simcluster's through about
// 400 seeded, staggered flows and returns its log: every completion in
// the order the callbacks fire, as flow id and exact virtual time, then
// the bytes transferred. Eight nodes in two racks declare their NICs in
// simcluster's order (out00, in00, out01, …, uplink), all with the same
// capacity, so fair shares tie between resources. Same-node flows cross
// no resource, some flows also name "ghost", which is never declared,
// and "spine" is declared mid-run: flows naming it before then ignore it.
func flowTimeline() []string {
	const nodes, nic = 8, 125e6
	s := New()
	n := NewFlowNet(s)
	for i := 0; i < nodes; i++ {
		n.AddResource(fmt.Sprintf("out%02d", i), nic)
		n.AddResource(fmt.Sprintf("in%02d", i), nic)
	}
	n.AddResource("uplink", 2*nic)
	s.At(10, func() { n.AddResource("spine", 3*nic) })
	rng := rand.New(rand.NewSource(44))
	var log []string
	for id := 0; id < 400; id++ {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		var res []string
		if a != b {
			res = []string{fmt.Sprintf("out%02d", a), fmt.Sprintf("in%02d", b)}
			if a/4 != b/4 {
				res = append(res, "uplink")
			}
		}
		switch {
		case id%5 == 0:
			res = append(res, "spine")
		case id%7 == 0:
			res = append(res, "ghost")
		}
		size := float64(64+rng.Intn(8)*32) * 1e6
		at := float64(rng.Intn(160)) * 0.125
		s.At(at, func() {
			n.StartFlow(size, res, func() {
				log = append(log, fmt.Sprintf("flow %03d %s", id, strconv.FormatFloat(s.Now(), 'x', -1, 64)))
			})
		})
	}
	s.Run()
	return append(log, "transferred "+strconv.FormatFloat(n.Transferred, 'x', -1, 64))
}

// TestFlowNetTimelineGolden pins the exact completion timeline of
// flowTimeline. Run with -update to rewrite the golden file after a
// deliberate change of timing.
func TestFlowNetTimelineGolden(t *testing.T) {
	got := strings.Join(flowTimeline(), "\n") + "\n"
	path := filepath.Join("testdata", "flow_timeline.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("flow timeline differs at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("flow timeline has %d lines, golden file %d", len(gl), len(wl))
	}
}
