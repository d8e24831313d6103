package mapreduce

import (
	"context"
	"testing"

	"eclipsemr/internal/hashing"
)

// MapTaskSegments is for the external test package, which may import the
// paper applications (they import this package). It runs req as one map
// task over input on a fresh in-process cluster and returns, per reduce
// partition, the segments the partition's owner holds afterwards, in
// push order, next to what the parent pipeline produces for the same
// request: raw append, then the reference stable-sort combiner per spill.
// Block, namespace and reduce table are filled in here.
func MapTaskSegments(t *testing.T, req RunMapReq, input []byte) (pushed, reference [][][]byte) {
	t.Helper()
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	ec.upload(t, "identity.in", input, len(input)+1)
	meta, err := ec.fs[ec.ids[0]].Lookup(context.Background(), "identity.in", "tester")
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.BlockKeys) != 1 {
		t.Fatalf("input stored as %d blocks, want 1", len(meta.BlockKeys))
	}
	table, err := hashing.AlignedRangeTable(ec.ring)
	if err != nil {
		t.Fatal(err)
	}
	req.Job, req.Namespace, req.BlockKey = "identity", "job:identity", meta.BlockKeys[0]
	req.ReduceServers, req.ReduceBounds = table.Servers(), table.Bounds()
	if _, err := ec.workers[ec.ids[0]].runMap(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	pushed = make([][][]byte, table.Len())
	for part, owner := range table.Servers() {
		store := ec.fs[owner].Store()
		if req.Task == "" {
			pushed[part] = store.ReadSegments(req.Namespace, partitionName(part))
			continue
		}
		for _, seg := range store.ReadTaggedSegments(req.Namespace, partitionName(part)) {
			pushed[part] = append(pushed[part], seg.Data)
		}
	}
	spills, err := referenceSpills(mustLookup(req.App), table, req, input)
	if err != nil {
		t.Fatal(err)
	}
	reference = make([][][]byte, table.Len())
	for _, s := range spills {
		if s.seq != len(reference[s.part]) {
			t.Fatalf("reference spill of partition %d has seq %d, want %d", s.part, s.seq, len(reference[s.part]))
		}
		reference[s.part] = append(reference[s.part], s.data)
	}
	return pushed, reference
}
