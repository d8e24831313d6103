package dhtfs

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
)

// countCalls re-mounts every node of tc behind a counter of the calls that
// reach it over the network; a replica on the calling node is served
// without one.
func countCalls(t *testing.T, tc *testCluster) func() int {
	t.Helper()
	var mu sync.Mutex
	calls := 0
	for _, id := range tc.ids {
		peer := tc.services[id]
		tc.net.Unlisten(id)
		err := tc.net.Listen(id, func(ctx context.Context, method string, body []byte) ([]byte, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			out, _, err := peer.Handle(ctx, method, body)
			return out, err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		return calls
	}
}

// TestReadOrder pins the one replica-order rule of the read path: a read
// starts at this node's own copy when it holds one and costs a message only
// when it does not, whichever of the four read entry points is used; a
// missing or corrupt local copy sends the read on to the neighbours.
func TestReadOrder(t *testing.T) {
	ctx := context.Background()
	const file = "order.dat" // one block, so data and metadata share a replica set
	data := randomData(200, 51)
	sum := SumBlock(data)
	key := hashing.KeyOfString(file)

	type read struct {
		name     string
		block    bool // a block read by key: no metadata involved
		verifies bool // checks the block against its digest
		run      func(svc *Service) ([]byte, error)
	}
	reads := []read{
		{"getMeta", false, false, func(svc *Service) ([]byte, error) {
			meta, err := svc.Lookup(ctx, file, "alice")
			if err == nil && (meta.Size != int64(len(data)) || meta.BlockSums[0] != sum) {
				err = fmt.Errorf("metadata %+v", meta)
			}
			return nil, err
		}},
		{"getFile", false, true, func(svc *Service) ([]byte, error) { return svc.ReadFile(ctx, file, "alice") }},
		{"ReadBlock", true, false, func(svc *Service) ([]byte, error) { return svc.ReadBlock(ctx, key) }},
		{"ReadBlockVerified", true, true, func(svc *Service) ([]byte, error) { return svc.ReadBlockVerified(ctx, key, sum) }},
	}
	// The reader by its place in the key's replica set; with 3 copies on 4
	// nodes exactly one node holds none.
	readers := []struct {
		name   string
		holder bool
		pick   func(set, all []hashing.NodeID) hashing.NodeID
	}{
		{"owner", true, func(set, _ []hashing.NodeID) hashing.NodeID { return set[0] }},
		{"replica", true, func(set, _ []hashing.NodeID) hashing.NodeID { return set[2] }},
		{"outsider", false, func(set, all []hashing.NodeID) hashing.NodeID {
			for _, id := range all {
				if !slices.Contains(set, id) {
					return id
				}
			}
			return ""
		}},
	}
	states := []struct {
		name  string
		apply func(tc *testCluster, self hashing.NodeID, set []hashing.NodeID)
		// What one read by a holder then costs and counts. A block read that
		// is not answered by the first replica asked is a failover; ReadFile
		// makes one only when the block that came with the metadata is bad.
		calls, failovers, corrupt int
		holdersOnly, verifiedOnly bool
	}{
		{name: "intact", apply: func(*testCluster, hashing.NodeID, []hashing.NodeID) {}},
		{name: "local copy missing", calls: 1, failovers: 1, holdersOnly: true,
			apply: func(tc *testCluster, self hashing.NodeID, _ []hashing.NodeID) {
				store := tc.services[self].Store()
				if ok, err := store.DeleteMeta(file); !ok || err != nil {
					t.Fatalf("DeleteMeta = %v, %v", ok, err)
				}
				if !store.DeleteBlock(key) {
					t.Fatal("no local block to lose")
				}
			}},
		{name: "local copy corrupt", calls: 1, failovers: 1, corrupt: 1, holdersOnly: true, verifiedOnly: true,
			apply: func(tc *testCluster, self hashing.NodeID, _ []hashing.NodeID) {
				bad := bytes.Clone(data)
				bad[0] ^= 0xff
				if err := tc.services[self].Store().PutBlock(key, bad); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "every other replica unreachable", holdersOnly: true,
			apply: func(tc *testCluster, self hashing.NodeID, set []hashing.NodeID) {
				for _, id := range set {
					if id != self {
						tc.net.Partition(id, true)
					}
				}
			}},
	}

	for _, rd := range reads {
		for _, who := range readers {
			for _, st := range states {
				if (st.holdersOnly && !who.holder) || (st.verifiedOnly && !rd.verifies) {
					continue
				}
				t.Run(rd.name+"/"+who.name+"/"+st.name, func(t *testing.T) {
					tc := newTestCluster(t, 4, 3)
					if _, err := tc.any().Upload(ctx, file, "alice", PermPublic, data, 1<<10); err != nil {
						t.Fatal(err)
					}
					set, _ := tc.ring.ReplicaSet(key, 3)
					self := who.pick(set, tc.ids)
					svc := tc.services[self]
					log := events.New(string(self), events.Options{})
					svc.SetEvents(log)
					st.apply(tc, self, set)
					calls := countCalls(t, tc)

					got, err := rd.run(svc)
					if err != nil || (got != nil && !bytes.Equal(got, data)) {
						t.Fatalf("read = %d bytes, %v", len(got), err)
					}
					wantCalls, wantFailovers := st.calls, 0
					if !who.holder {
						wantCalls = 1 // the owner, first in ring order, answers
					}
					if rd.block || st.corrupt > 0 {
						wantFailovers = st.failovers
					}
					snap := svc.Metrics().Snapshot()
					if n := calls(); n != wantCalls {
						t.Errorf("the read cost %d calls over the network, want %d", n, wantCalls)
					}
					if n := snap.Get("fs.read.failover"); n != int64(wantFailovers) {
						t.Errorf("fs.read.failover = %d, want %d", n, wantFailovers)
					}
					if n := snap.Get("fs.read.corrupt"); n != int64(st.corrupt) {
						t.Errorf("fs.read.corrupt = %d, want %d", n, st.corrupt)
					}
					var named []string
					for _, ev := range log.Events("", 0) {
						if ev.Name == "fs.read_corrupt" {
							named = append(named, ev.Detail)
						}
					}
					if st.corrupt == 1 && !slices.Equal(named, []string{string(self)}) {
						t.Errorf("fs.read_corrupt events name %v, want the reader %s", named, self)
					}
				})
			}
		}
	}
}

// TestReadOrderRule: self moves to the front of its replica set and the
// others keep their ring order; a node outside the set sees ring order.
func TestReadOrderRule(t *testing.T) {
	tc := newTestCluster(t, 5, 3)
	for i := 0; i < 64; i++ {
		k := hashing.BlockKey("rule.dat", i)
		set, _ := tc.ring.ReplicaSet(k, 3)
		for id, svc := range tc.services {
			got, err := svc.readOrder(k)
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(set)
			if j := slices.Index(want, id); j >= 0 {
				want = append([]hashing.NodeID{id}, slices.Delete(want, j, j+1)...)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("readOrder(%s) on %s = %v, want %v (replica set %v)", k, id, got, want, set)
			}
		}
	}
}
