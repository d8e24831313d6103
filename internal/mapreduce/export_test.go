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
// push order, next to what the reference pipeline produces for the same
// request: raw append, then the reference combiner (keys in first-emit
// order) per spill.
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

// ReduceSegments is for the external test package: it stores segments, in
// order, as one reduce partition's spills on a fresh in-process cluster,
// runs the partition's reduce task on their owner and returns the output
// file's bytes.
func ReduceSegments(t *testing.T, app string, params Params, segments [][]byte) []byte {
	t.Helper()
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	owner := ec.ids[0]
	req := RunReduceReq{
		Job: "order", Namespace: "job:order", App: app, Params: params,
		SegmentOwner: owner, OutputFile: "order.out", User: "tester",
	}
	for seq, seg := range segments {
		ec.fs[owner].Store().AppendTaskSegment(req.Namespace, partitionName(req.Partition), "", 0, seq, seg, 0)
	}
	resp, err := ec.workers[owner].runReduce(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.HasOutput {
		t.Fatal("the reduce task wrote no output")
	}
	out, err := ec.fs[owner].ReadFile(context.Background(), req.OutputFile, req.User)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
