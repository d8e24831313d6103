package mapreduce

import (
	"bytes"
	"context"
	"crypto/sha1"
	"strings"
	"testing"
	"testing/quick"

	"eclipsemr/internal/hashing"
)

// Property: DecodeKVs never panics on arbitrary bytes — it either returns
// an error or a pair list that re-encodes to a prefix-compatible stream.
func TestDecodeKVsArbitraryBytes(t *testing.T) {
	f := func(data []byte) bool {
		kvs, err := DecodeKVs(data)
		if err != nil {
			return true // rejected: fine
		}
		// Accepted input must round-trip exactly.
		return bytes.Equal(EncodeKVs(kvs), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Encode→Decode is the identity for arbitrary pair lists.
func TestKVRoundTripArbitrary(t *testing.T) {
	f := func(keys []string, values [][]byte) bool {
		n := len(keys)
		if len(values) < n {
			n = len(values)
		}
		kvs := make([]KV, n)
		for i := 0; i < n; i++ {
			kvs[i] = KV{Key: keys[i], Value: values[i]}
		}
		out, err := DecodeKVs(EncodeKVs(kvs))
		if err != nil || len(out) != len(kvs) {
			return false
		}
		for i := range kvs {
			if out[i].Key != kvs[i].Key || !bytes.Equal(out[i].Value, kvs[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: GroupByKey conserves every value exactly once.
func TestGroupByKeyConservesValues(t *testing.T) {
	f := func(keys []uint8, payload uint8) bool {
		kvs := make([]KV, len(keys))
		for i, k := range keys {
			kvs[i] = KV{Key: string(rune('a' + k%16)), Value: []byte{payload, k}}
		}
		groups := GroupByKey(kvs)
		total := 0
		for _, g := range groups {
			total += len(g.Values)
			for i := 1; i < len(g.Values); i++ {
				if g.Key == "" {
					return false
				}
			}
		}
		return total == len(kvs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeKVsHugeLength is the regression test for the 32-bit length
// overflow: a declared key or value length at or above 2^31 used to wrap
// negative through int(uint32) on 32-bit platforms and corrupt the scan.
// Lengths must now be validated against the remaining input in unsigned
// space before conversion, so these streams error out everywhere.
func TestDecodeKVsHugeLength(t *testing.T) {
	cases := map[string][]byte{
		// Key length 0x80000000 with 1 byte of data behind it.
		"huge key": {0x80, 0x00, 0x00, 0x00, 'x'},
		// Key length 0xffffffff (would be -1 as int32).
		"max key": {0xff, 0xff, 0xff, 0xff, 'x'},
		// Valid 1-byte key, then value length 0x80000000.
		"huge value": {0x00, 0x00, 0x00, 0x01, 'k', 0x80, 0x00, 0x00, 0x00, 'v'},
		// Valid 1-byte key, then value length 0xffffffff.
		"max value": {0x00, 0x00, 0x00, 0x01, 'k', 0xff, 0xff, 0xff, 0xff, 'v'},
	}
	for name, data := range cases {
		if kvs, err := DecodeKVs(data); err == nil {
			t.Errorf("%s: DecodeKVs accepted %x as %v", name, data, kvs)
		}
	}
}

// TestMapRequestNamesTaskAndDigest: a map request must name its task (its
// spills are tracked by task and attempt) and its block's digest (every
// read is checked against it). One missing either is refused before
// anything is read or shipped; the same request with both runs.
func TestMapRequestNamesTaskAndDigest(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	text, _ := wideCorpus(40, 5)
	ec.upload(t, "named.txt", text, 1<<20)
	meta, err := ec.fs[ec.ids[0]].Lookup(context.Background(), "named.txt", "tester")
	if err != nil {
		t.Fatal(err)
	}
	table, err := hashing.AlignedRangeTable(ec.ring)
	if err != nil {
		t.Fatal(err)
	}
	segments := func(ns string) int {
		n := 0
		for part, owner := range table.Servers() {
			n += len(ec.fs[owner].Store().ReadSegments(ns, partitionName(part)))
		}
		return n
	}
	full := RunMapReq{
		Job: "named", App: "test-wordcount",
		BlockKey: meta.BlockKeys[0], BlockSum: meta.BlockSums[0], Task: "t0",
		ReduceServers: table.Servers(), ReduceBounds: table.Bounds(),
	}
	w := ec.workers[ec.ids[0]]
	for name, drop := range map[string]func(*RunMapReq){
		"no task":   func(r *RunMapReq) { r.Task = "" },
		"no digest": func(r *RunMapReq) { r.BlockSum = [sha1.Size]byte{} },
	} {
		t.Run(name, func(t *testing.T) {
			req := full
			req.Namespace = "job:named-" + strings.ReplaceAll(name, " ", "-")
			drop(&req)
			if _, err := w.runMap(context.Background(), req); err == nil || !strings.Contains(err.Error(), "names no task or no block digest") {
				t.Fatalf("runMap(%s) = %v, want a refusal", name, err)
			}
			if n := segments(req.Namespace); n != 0 {
				t.Fatalf("a refused request shipped %d spills", n)
			}
		})
	}
	full.Namespace = "job:named-full"
	if _, err := w.runMap(context.Background(), full); err != nil {
		t.Fatalf("runMap with task and digest: %v", err)
	}
	if segments(full.Namespace) == 0 {
		t.Fatal("the full request shipped no spills")
	}
}

// TestAsyncSpillRetransmitDedup pins that the coalesced batch path keeps
// the store's (task, attempt, seq) dedup exactly: re-running the same map
// attempt (a duplicate dispatch) replaces its spills instead of
// duplicating them, and a higher attempt supersedes them all.
func TestAsyncSpillRetransmitDedup(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	text, _ := wideCorpus(150, 3)
	ec.upload(t, "dedup.txt", text, 1<<20)
	meta, err := ec.fs[ec.ids[0]].Lookup(context.Background(), "dedup.txt", "tester")
	if err != nil {
		t.Fatal(err)
	}
	table, err := hashing.AlignedRangeTable(ec.ring)
	if err != nil {
		t.Fatal(err)
	}
	req := RunMapReq{
		Job: "dd-1", Namespace: "job:dd-1", App: "test-wordcount",
		BlockKey: meta.BlockKeys[0], BlockSum: meta.BlockSums[0], Task: "t0", Attempt: 0,
		ReduceServers: table.Servers(), ReduceBounds: table.Bounds(),
		SpillThreshold: 64,
	}
	run := func() {
		t.Helper()
		if _, err := ec.workers[ec.ids[0]].runMap(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	count := func() (segments int, bytes int) {
		t.Helper()
		for part, owner := range table.Servers() {
			for _, seg := range ec.fs[owner].Store().ReadTaggedSegments(req.Namespace, partitionName(part)) {
				segments++
				bytes += len(seg.Data)
			}
		}
		return segments, bytes
	}
	run()
	segs1, bytes1 := count()
	if segs1 == 0 {
		t.Fatal("first attempt stored no segments")
	}
	run() // duplicate dispatch of the same attempt: replaced, not appended
	if segs2, bytes2 := count(); segs2 != segs1 || bytes2 != bytes1 {
		t.Fatalf("after retransmit: %d segments/%d bytes, want %d/%d", segs2, bytes2, segs1, bytes1)
	}
	req.Attempt = 1
	run() // higher attempt supersedes everything from attempt 0
	segs3, bytes3 := count()
	if segs3 != segs1 || bytes3 != bytes1 {
		t.Fatalf("after supersede: %d segments/%d bytes, want %d/%d", segs3, bytes3, segs1, bytes1)
	}
	for part, owner := range table.Servers() {
		for _, seg := range ec.fs[owner].Store().ReadTaggedSegments(req.Namespace, partitionName(part)) {
			if seg.Attempt != 1 {
				t.Fatalf("partition %d still holds attempt-%d segment after supersede", part, seg.Attempt)
			}
		}
	}
}
