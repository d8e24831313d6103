package dhtfs

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/cache"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

// fileShape is one way a name comes to hold its bytes: uploaded once as
// one block or as several, or re-uploaded across that boundary. The last
// upload is what every node must serve afterwards.
type fileShape struct {
	name    string
	file    string
	uploads []int // byte counts, in upload order; shapeBlock bytes per block
}

const shapeBlock = 256

var fileShapes = []fileShape{
	{"one-block", "shape.dat", []int{100}},
	{"multi-block", "shape.dat", []int{1000}},
	{"one-then-multi", "shape.dat", []int{100, 1000}},
	{"multi-then-one", "shape.dat", []int{1000, 100}},
	// Its name key is the key of block 0 of "shape.dat", so its only block
	// stays where the parent put it, at BlockKey(name, 0).
	{"one-block named like a block", "shape.dat:0", []int{100}},
}

// put uploads every version of the shape as alice and returns the bytes
// and metadata of the last one, plus the metadata of the earlier ones.
func (sh fileShape) put(t *testing.T, svc *Service, perm Perm) (data []byte, meta Metadata, earlier []Metadata) {
	t.Helper()
	for i, n := range sh.uploads {
		if i > 0 {
			earlier = append(earlier, meta)
		}
		data = randomData(n, int64(100*i+n))
		var err error
		if meta, err = svc.Upload(context.Background(), sh.file, "alice", perm, data, shapeBlock); err != nil {
			t.Fatal(err)
		}
	}
	return data, meta, earlier
}

// TestFileShapes runs every file operation over every shape: the
// placement rule (a one-block file's block lives at the file-name key) is
// invisible except in where the bytes sit and how many messages move them.
func TestFileShapes(t *testing.T) {
	ctx := context.Background()
	readEverywhere := func(t *testing.T, tc *testCluster, file string, want []byte) {
		t.Helper()
		for id, svc := range tc.services {
			got, err := svc.ReadFile(ctx, file, "alice")
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("ReadFile(%s) on %s = %d bytes, %v; want the %d uploaded last", file, id, len(got), err, len(want))
			}
		}
	}
	checks := []struct {
		name string
		run  func(t *testing.T, sh fileShape, tc *testCluster)
	}{
		{"upload", func(t *testing.T, sh fileShape, tc *testCluster) {
			_, meta, _ := sh.put(t, tc.any(), PermPublic)
			nameKey := hashing.KeyOfString(sh.file)
			for i, k := range meta.BlockKeys {
				want := hashing.BlockKey(sh.file, i)
				if len(meta.BlockKeys) == 1 && sh.file == "shape.dat" {
					want = nameKey
				}
				if k != want {
					t.Fatalf("block %d of %d is keyed %s, want %s (name key %s)", i, len(meta.BlockKeys), k, want, nameKey)
				}
				targets, _ := tc.ring.ReplicaSet(k, 3)
				for _, id := range targets {
					if !tc.services[id].Store().HasBlock(k) {
						t.Fatalf("replica %s misses block %d", id, i)
					}
				}
			}
			targets, _ := tc.ring.ReplicaSet(nameKey, 3)
			for _, id := range targets {
				got, err := tc.services[id].Store().GetMeta(sh.file)
				if err != nil || got.Size != meta.Size {
					t.Fatalf("metadata replica %s holds %+v, %v", id, got, err)
				}
			}
		}},
		{"read", func(t *testing.T, sh fileShape, tc *testCluster) {
			data, meta, earlier := sh.put(t, tc.any(), PermPublic)
			readEverywhere(t, tc, sh.file, data)
			// The iCache names a block by key and digest, so a block an
			// earlier version cached under the same key cannot be served.
			ic := cache.NewShared(1 << 20)
			for _, old := range earlier {
				for i, k := range old.BlockKeys {
					ic.PutBlockVersion(cache.BlockID{Key: k, Sum: old.BlockSums[i]}, blockbuf.Of([]byte("stale")))
				}
			}
			for i, k := range meta.BlockKeys {
				if _, hit := ic.GetBlockVersion(cache.BlockID{Key: k, Sum: meta.BlockSums[i]}); hit {
					t.Fatalf("block %d hits a cache entry of an earlier version", i)
				}
			}
		}},
		{"delete", func(t *testing.T, sh fileShape, tc *testCluster) {
			_, meta, _ := sh.put(t, tc.any(), PermPublic)
			if err := tc.any().Delete(ctx, sh.file, "alice"); err != nil {
				t.Fatal(err)
			}
			for id, svc := range tc.services {
				if _, err := svc.Store().GetMeta(sh.file); !IsNotFound(err) {
					t.Fatalf("%s still holds the metadata", id)
				}
				for i, k := range append([]hashing.Key{hashing.KeyOfString(sh.file)}, meta.BlockKeys...) {
					if svc.Store().HasBlock(k) {
						t.Fatalf("%s still holds a block (name key, then blocks: #%d)", id, i)
					}
				}
			}
			if _, err := tc.any().ReadFile(ctx, sh.file, "alice"); !IsNotFound(err) {
				t.Fatalf("ReadFile after Delete = %v", err)
			}
			if err := tc.any().Delete(ctx, sh.file, "alice"); !IsNotFound(err) {
				t.Fatalf("second Delete = %v", err)
			}
		}},
		{"replica down", func(t *testing.T, sh fileShape, tc *testCluster) {
			data, _, _ := sh.put(t, tc.any(), PermPublic)
			owner, _ := tc.ring.Owner(hashing.KeyOfString(sh.file))
			tc.net.Partition(owner, true) // still in the ring: reads must fail over
			for id, svc := range tc.services {
				if id == owner {
					continue
				}
				got, err := svc.ReadFile(ctx, sh.file, "alice")
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("ReadFile on %s with %s cut off = %d bytes, %v", id, owner, len(got), err)
				}
			}
		}},
		{"replica corrupt", func(t *testing.T, sh fileShape, tc *testCluster) {
			data, meta, _ := sh.put(t, tc.any(), PermPublic)
			owner, _ := tc.ring.Owner(meta.BlockKeys[0])
			store := tc.services[owner].Store()
			blk, err := store.GetBlock(meta.BlockKeys[0])
			if err != nil {
				t.Fatal(err)
			}
			blk[0] ^= 0xff
			if err := store.PutBlock(meta.BlockKeys[0], blk); err != nil {
				t.Fatal(err)
			}
			readEverywhere(t, tc, sh.file, data)
		}},
		{"replica lost its block", func(t *testing.T, sh fileShape, tc *testCluster) {
			data, meta, _ := sh.put(t, tc.any(), PermPublic)
			owner, _ := tc.ring.Owner(meta.BlockKeys[0])
			tc.services[owner].Store().DeleteBlock(meta.BlockKeys[0])
			readEverywhere(t, tc, sh.file, data)
		}},
		{"re-replicate", func(t *testing.T, sh fileShape, tc *testCluster) {
			data, meta, _ := sh.put(t, tc.any(), PermPublic)
			nameKey := hashing.KeyOfString(sh.file)
			owner, _ := tc.ring.Owner(nameKey)
			tc.fail(owner)
			for _, svc := range tc.services {
				if _, err := svc.ReReplicate(ctx); err != nil {
					t.Fatal(err)
				}
			}
			for i, k := range meta.BlockKeys {
				targets, _ := tc.ring.ReplicaSet(k, 3)
				for _, id := range targets {
					if !tc.services[id].Store().HasBlock(k) {
						t.Fatalf("after recovery, replica %s misses block %d", id, i)
					}
				}
			}
			targets, _ := tc.ring.ReplicaSet(nameKey, 3)
			for _, id := range targets {
				if _, err := tc.services[id].Store().GetMeta(sh.file); err != nil {
					t.Fatalf("after recovery, replica %s misses the metadata", id)
				}
			}
			readEverywhere(t, tc, sh.file, data)
		}},
		{"permission", func(t *testing.T, sh fileShape, tc *testCluster) {
			data, _, _ := sh.put(t, tc.any(), PermPrivate)
			for id, svc := range tc.services {
				if _, err := svc.ReadFile(ctx, sh.file, "eve"); !IsPermission(err) {
					t.Fatalf("ReadFile by a stranger on %s = %v", id, err)
				}
				if err := svc.Delete(ctx, sh.file, "eve"); !IsPermission(err) {
					t.Fatalf("Delete by a stranger on %s = %v", id, err)
				}
			}
			readEverywhere(t, tc, sh.file, data) // the refused deletes removed nothing
		}},
	}
	for _, sh := range fileShapes {
		for _, c := range checks {
			sh, c := sh, c
			t.Run(sh.name+"/"+c.name, func(t *testing.T) {
				c.run(t, sh, newTestCluster(t, 6, 3))
			})
		}
	}

	// Two files, one named like a block of the other: hashing.BlockKey
	// hashes name+":"+index, so bob's "shape.dat:0" has the name key that
	// block 0 of alice's "shape.dat" lives at. Neither upload may write over
	// the other's block, and neither delete may take it.
	for _, order := range [][2]string{{"alice", "bob"}, {"bob", "alice"}} {
		t.Run("named like a neighbour's block/"+order[0]+" first", func(t *testing.T) {
			tc := newTestCluster(t, 6, 3)
			files := map[string]struct {
				name string
				data []byte
			}{
				"alice": {"shape.dat", randomData(1000, 31)},
				"bob":   {"shape.dat:0", randomData(100, 32)},
			}
			upload := func(user string) Metadata {
				t.Helper()
				meta, err := tc.any().Upload(ctx, files[user].name, user, PermPrivate, files[user].data, shapeBlock)
				if err != nil {
					t.Fatal(err)
				}
				return meta
			}
			intact := func(user string) {
				t.Helper()
				for id, svc := range tc.services {
					got, err := svc.ReadFile(ctx, files[user].name, user)
					if err != nil || !bytes.Equal(got, files[user].data) {
						t.Fatalf("%s's file read on %s = %d bytes, %v", user, id, len(got), err)
					}
				}
			}
			keys := make(map[hashing.Key]string)
			for _, user := range order {
				for _, k := range upload(user).BlockKeys {
					if other, taken := keys[k]; taken {
						t.Fatalf("%s and %s both keep a block at %s", other, user, k)
					}
					keys[k] = user
				}
			}
			intact("alice")
			intact("bob")
			for i, user := range order {
				if err := tc.any().Delete(ctx, files[user].name, user); err != nil {
					t.Fatal(err)
				}
				other := order[1-i]
				intact(other)
				upload(user) // back for the other's turn to delete
				intact(other)
			}
		})
	}
}

// TestNamesABlock: exactly the names hashing.BlockKey can spell for some
// (file, index) are kept off the name key.
func TestNamesABlock(t *testing.T) {
	for name, want := range map[string]bool{
		"": false, "x": false, "12": false, "x:": false, "x:1a": false, "x:-1": false, "a:3:b": false,
		"_mr/journal/job-7": false, "job-7.out.p0003": false,
		"x:0": true, "x:12": true, ":5": true, "a:b:3": true, "x:007": true,
	} {
		if got := namesABlock(name); got != want {
			t.Errorf("namesABlock(%q) = %v, want %v", name, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		if key := "f:" + fmt.Sprint(i); hashing.KeyOfString(key) != hashing.BlockKey("f", i) || !namesABlock(key) {
			t.Errorf("block %d of f is not spelled %q", i, key)
		}
	}
}

// TestOneBlockFileRoutedRead: with zero-hop routing off, the block of a
// one-block file is still found hop by hop — at the file-name key.
func TestOneBlockFileRoutedRead(t *testing.T) {
	tc := newTestCluster(t, 8, 1) // one copy, so routing must find the owner
	data := randomData(100, 21)
	meta, err := tc.any().Upload(context.Background(), "routed-small.dat", "u", PermPublic, data, shapeBlock)
	if err != nil {
		t.Fatal(err)
	}
	k := meta.BlockKeys[0]
	owner, _ := tc.ring.Owner(k)
	forwarded := false
	for id, svc := range tc.services {
		got, hops, err := svc.ReadBlockRouted(context.Background(), k)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("routed read from %s = %d bytes, %v", id, len(got), err)
		}
		if (hops == 0) != (id == owner) {
			t.Fatalf("routed read from %s took %d hops; the owner is %s", id, hops, owner)
		}
		forwarded = forwarded || hops > 0
		svc.SetZeroHop(false)
		if got, err := svc.ReadBlock(context.Background(), k); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("ReadBlock with zero-hop off from %s = %d bytes, %v", id, len(got), err)
		}
		if got, err := svc.ReadFile(context.Background(), "routed-small.dat", "u"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("ReadFile with zero-hop off from %s = %d bytes, %v", id, len(got), err)
		}
	}
	if !forwarded {
		t.Fatal("no read was forwarded")
	}
}

// BenchmarkSmallFileOps is what a job pays per journal snapshot or reduce
// output over its life: upload, read back and delete one 1 KiB file, 3
// replicas on 4 nodes over loopback TCP behind the retry layer. RPCs/op
// counts the calls that left a node (a replica on the calling node costs
// none, and the calling node holds one of the three three times in four):
// 4.8 = 2.25 to write, 0.25 to read, 2.25 to delete; 5.3 when a read went
// to the owner first, 11.3 when block and metadata travelled apart.
func BenchmarkSmallFileOps(b *testing.B) {
	ids := []hashing.NodeID{"node-00", "node-01", "node-02", "node-03"}
	registry := make(map[hashing.NodeID]string)
	ring := hashing.NewChordRing()
	for _, id := range ids {
		registry[id] = "127.0.0.1:0"
		if err := ring.AddNode(id); err != nil {
			b.Fatal(err)
		}
	}
	net := transport.NewRetry(transport.NewTCP(registry, 0), transport.RetryPolicy{})
	defer net.Close()
	services := make([]*Service, len(ids))
	for i, id := range ids {
		svc, err := NewService(id, net, func() hashing.Ring { return ring }, 3)
		if err != nil {
			b.Fatal(err)
		}
		services[i] = svc
		err = net.Listen(id, func(ctx context.Context, method string, body []byte) ([]byte, error) {
			out, _, err := svc.Handle(ctx, method, body)
			return out, err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	data := randomData(1<<10, 22)
	op := func(i int) {
		svc, name := services[i%len(services)], fmt.Sprintf("_mr/journal/job-%06d", i)
		if _, err := svc.Upload(ctx, name, "bench", PermPublic, data, 1<<20); err != nil {
			b.Fatal(err)
		}
		if got, err := svc.ReadFile(ctx, name, "bench"); err != nil || !bytes.Equal(got, data) {
			b.Fatalf("read back %d bytes, %v", len(got), err)
		}
		if err := svc.Delete(ctx, name, "bench"); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2*len(services); i++ {
		op(i) // dial every pair outside the timer
	}
	calls := func() int64 { return net.NetMetrics().Snapshot().Get("net.calls") }
	before := calls()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(calls()-before)/float64(b.N), "RPCs/op")
}
