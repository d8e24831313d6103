package dhtfs

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"eclipsemr/internal/hashing"
)

// TestReplicaWalkStopsOnCancel pins the early exit of the replica and
// member walks: a call whose caller has cancelled must return the context
// error instead of racing down the list, where every further probe costs
// a full retry-with-backoff round nobody is waiting for.
func TestReplicaWalkStopsOnCancel(t *testing.T) {
	tc := newTestCluster(t, 4, 3)
	svc := tc.services[tc.ids[0]]
	data := bytes.Repeat([]byte("walk"), 16)
	meta, err := svc.Upload(context.Background(), "walk.dat", "alice", PermPublic, data, 32)
	if err != nil {
		t.Fatal(err)
	}

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := svc.PinBlock(cctx, meta.BlockKeys[0], meta.BlockSums[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("PinBlock under cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := svc.Lookup(cctx, "walk.dat", "alice"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Lookup under cancelled ctx = %v, want context.Canceled", err)
	}

	if _, err := svc.ListPrefix(cctx, "walk"); !errors.Is(err, context.Canceled) {
		t.Fatalf("ListPrefix under cancelled ctx = %v, want context.Canceled", err)
	}
	if err := svc.Delete(cctx, "walk.dat", "alice"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Delete under cancelled ctx = %v, want context.Canceled", err)
	}
	// DropJob reports nothing, so watch what it leaves: a spill on another
	// node survives a sweep nobody is waiting for.
	remote := tc.services[tc.ids[1]].Store()
	remote.AppendTaskSegment("job:walk", "p0", "m-0", 0, 0, []byte("spill"), 0)
	svc.DropJob(cctx, "job:walk")
	if len(remote.ReadSegments("job:walk", "p0")) != 1 {
		t.Fatal("DropJob under cancelled ctx still swept a remote node")
	}
	svc.DropJob(context.Background(), "job:walk")
	if len(remote.ReadSegments("job:walk", "p0")) != 0 {
		t.Fatal("DropJob under a live ctx left the spill behind")
	}

	// A live context still reads normally after the guard: the cancelled
	// Delete removed nothing.
	got, err := svc.ReadFile(context.Background(), "walk.dat", "alice")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}

	// A Delete cancelled part way strands nothing. Cancelled inside the
	// metadata wave it stops, and a retry finds the copies that are left;
	// cancelled once the metadata is gone it still deletes every block,
	// since nothing names them any more. The caller holds no replica of the
	// metadata, so all three fs.deleteFile cross the network.
	var outsider *Service
	metaReplicas, _ := tc.ring.ReplicaSet(hashing.KeyOfString("walk.dat"), 3)
	for _, id := range tc.ids {
		if !slices.Contains(metaReplicas, id) {
			outsider = tc.services[id]
		}
	}
	var cancelOn string
	var cancelNow context.CancelFunc
	for _, id := range tc.ids {
		peer := tc.services[id]
		tc.net.Unlisten(id)
		err := tc.net.Listen(id, func(ctx context.Context, method string, body []byte) ([]byte, error) {
			out, _, err := peer.Handle(ctx, method, body)
			if method == cancelOn {
				cancelNow()
			}
			return out, err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// deleteCancelledAt deletes the file under a context that is cancelled
	// once a node has served the first call of the given method.
	deleteCancelledAt := func(method string) (cancelled bool, err error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cancelOn, cancelNow = method, cancel
		defer func() { cancelOn = "" }()
		err = outsider.Delete(ctx, "walk.dat", "alice")
		return ctx.Err() != nil, err
	}
	leftovers := func() (n int) {
		for _, peer := range tc.services {
			blocks, metas, _ := peer.Store().Counts()
			n += blocks + metas
		}
		return n
	}

	if _, err := deleteCancelledAt(MethodDeleteFile); !errors.Is(err, context.Canceled) {
		t.Fatalf("Delete cancelled after the first metadata replica = %v, want context.Canceled", err)
	}
	if err := outsider.Delete(context.Background(), "walk.dat", "alice"); err != nil {
		t.Fatalf("retry of the cancelled Delete = %v", err)
	}
	if n := leftovers(); n != 0 {
		t.Fatalf("the retried Delete left %d blocks and metadata entries behind", n)
	}

	if _, err := svc.Upload(context.Background(), "walk.dat", "alice", PermPublic, data, 32); err != nil {
		t.Fatal(err)
	}
	cancelled, err := deleteCancelledAt(MethodDeleteBlock)
	if err != nil || !cancelled {
		t.Fatalf("Delete cancelled after the metadata wave = %v (cancel fired: %v)", err, cancelled)
	}
	if n := leftovers(); n != 0 {
		t.Fatalf("Delete cancelled after the metadata wave stranded %d blocks", n)
	}
}
