package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

// TestRingBackendsPlaceConsistently pins cross-node agreement on the view
// ring: every node derives its placement ring from the adopted membership
// view, so all nodes resolve every probe key to the same owner and replica
// set.
func TestRingBackendsPlaceConsistently(t *testing.T) {
	c := newTestCluster(t, 5, Options{})
	rings := make([]*hashing.ChordRing, 0, 5)
	for _, id := range c.Nodes() {
		n, ok := c.Node(id)
		if !ok {
			t.Fatalf("node %s missing", id)
		}
		rings = append(rings, n.Ring())
	}
	for i := 0; i < 64; i++ {
		k := hashing.KeyOfString("probe-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)))
		owner, err := rings[0].Owner(k)
		if err != nil {
			t.Fatal(err)
		}
		set, err := rings[0].ReplicaSet(k, 3)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range rings[1:] {
			got, err := r.Owner(k)
			if err != nil || got != owner {
				t.Fatalf("node %d disagrees on owner of %v: %s vs %s (err %v)", j+1, k, got, owner, err)
			}
			gotSet, err := r.ReplicaSet(k, 3)
			if err != nil {
				t.Fatal(err)
			}
			for x := range set {
				if gotSet[x] != set[x] {
					t.Fatalf("node %d disagrees on replica set of %v: %v vs %v", j+1, k, gotSet, set)
				}
			}
		}
	}
}

// TestSharedRingNeverChanges: a ring handed to BecomeManagerWith and one
// taken from Node.Ring keep their members and positions while the manager
// admits a node, evicts another and is then replaced by election, though
// readers place keys on them throughout. Every membership change makes a
// new view with a ring of its own.
func TestSharedRingNeverChanges(t *testing.T) {
	net := transport.NewLocal()
	nodes := make(map[hashing.NodeID]*Node)
	for _, id := range []hashing.NodeID{"ring-a", "ring-b", "ring-c", "ring-d"} {
		n, err := NewNode(id, net, Config{HeartbeatInterval: 25 * time.Millisecond, CacheBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		nodes[id] = n
	}
	handed := hashing.NewChordRing()
	for _, id := range []hashing.NodeID{"ring-a", "ring-b", "ring-c"} {
		if err := handed.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := nodes["ring-c"].BecomeManagerWith(handed, 1)
	if err != nil {
		t.Fatal(err)
	}
	taken := nodes["ring-a"].Ring()
	layout := func(r *hashing.ChordRing) string {
		var b strings.Builder
		for _, id := range r.Members() {
			pos, _ := r.Position(id)
			fmt.Fprintf(&b, "%s@%v ", id, pos)
		}
		return b.String()
	}
	rings := map[string]*hashing.ChordRing{"handed to BecomeManagerWith": handed, "taken from Node.Ring": taken}
	want := layout(handed)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, r := range rings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.ReplicaSet(hashing.KeyOfString(fmt.Sprint("probe-", i)), 3); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for _, step := range []struct {
		name   string
		change func() error
		epoch  uint64
		has    hashing.NodeID
		hasNot hashing.NodeID
	}{
		{"join", func() error { return mgr.Join("ring-d") }, 2, "ring-d", ""},
		{"evict", func() error { nodes["ring-b"].Close(); mgr.Fail("ring-b"); return nil }, 3, "ring-d", "ring-b"},
		{"election", func() error {
			nodes["ring-c"].Close()
			nodes["ring-d"].runElection()
			if !nodes["ring-d"].IsManager() {
				return fmt.Errorf("ring-d was not elected")
			}
			return nil
		}, 4, "ring-d", "ring-c"},
	} {
		t.Run(step.name, func(t *testing.T) {
			if err := step.change(); err != nil {
				t.Fatal(err)
			}
			for name, r := range rings {
				if got := layout(r); got != want {
					t.Errorf("ring %s changed: %s, was %s", name, got, want)
				}
			}
			if v := nodes["ring-a"].View(); v.Epoch != step.epoch || !v.Has(step.has) || v.Has(step.hasNot) {
				t.Fatalf("the membership did not move on: epoch %d, %v", v.Epoch, v.Members)
			}
		})
	}
}

// TestNodeRingIsTheAdoptedViewsRing: every reader of a node gets the one
// ring of the view it adopted, not a copy per call, and the next view
// brings a ring of its own.
func TestNodeRingIsTheAdoptedViewsRing(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	n, _ := c.Node(c.Nodes()[0])
	ring := n.Ring()
	if n.Ring() != ring {
		t.Fatal("two calls of Node.Ring handed out two rings")
	}
	if err := c.FailNow(c.Nodes()[1]); err != nil {
		t.Fatal(err)
	}
	if next := n.Ring(); next == ring || next.Len() != 2 || ring.Len() != 3 {
		t.Fatalf("after an eviction: ring of %d members, was %d (same ring: %v)", next.Len(), ring.Len(), next == ring)
	}
}
