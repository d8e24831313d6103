package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"eclipsemr/internal/hashing"
)

// referenceGroupByKey is the grouping the engine used before the hash
// kernel: stable-sort every pair by key, then collate runs. It stays as
// the oracle the kernel is checked against.
func referenceGroupByKey(kvs []KV) []Group {
	sorted := append([]KV(nil), kvs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var out []Group
	for i := 0; i < len(sorted); {
		j := i
		var values [][]byte
		for ; j < len(sorted) && sorted[j].Key == sorted[i].Key; j++ {
			values = append(values, sorted[j].Value)
		}
		out = append(out, Group{Key: sorted[i].Key, Values: values})
		i = j
	}
	return out
}

// sameGroups compares two groupings exactly: same keys in the same order,
// same values in the same order, nil-ness of every value included.
func sameGroups(got, want []Group) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			return fmt.Errorf("group %d: key %q, want %q", i, got[i].Key, want[i].Key)
		}
		if len(got[i].Values) != len(want[i].Values) {
			return fmt.Errorf("group %q: %d values, want %d", want[i].Key, len(got[i].Values), len(want[i].Values))
		}
		for j := range want[i].Values {
			g, w := got[i].Values[j], want[i].Values[j]
			if !bytes.Equal(g, w) || (g == nil) != (w == nil) {
				return fmt.Errorf("group %q value %d: %q, want %q", want[i].Key, j, g, w)
			}
		}
	}
	return nil
}

// streamGroups runs the reduce path's entry point over kvs split into
// nStreams encoded streams and copies the groups out.
func streamGroups(t *testing.T, kvs []KV, nStreams int) []Group {
	t.Helper()
	streams := make([][]byte, nStreams)
	for i := range streams {
		lo, hi := i*len(kvs)/nStreams, (i+1)*len(kvs)/nStreams
		streams[i] = EncodeKVs(kvs[lo:hi])
	}
	gd, err := groupStreams(streams)
	if err != nil {
		t.Fatalf("groupStreams: %v", err)
	}
	var out []Group
	if err := gd.each(func(key string, values [][]byte) error {
		out = append(out, Group{Key: key, Values: values})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// value tags pair i so that any reordering inside a group shows.
func tagged(i int) []byte { return []byte(fmt.Sprintf("v%d", i)) }

func groupingCases() map[string][]KV {
	rng := rand.New(rand.NewSource(7))
	cases := map[string][]KV{
		"one pair":  {{Key: "k", Value: []byte("v")}},
		"two equal": {{Key: "k", Value: []byte("1")}, {Key: "k", Value: []byte("2")}},
		"two apart": {{Key: "z", Value: []byte("1")}, {Key: "a", Value: []byte("2")}},
		"empty key": {{Key: "", Value: []byte("1")}, {Key: "a", Value: []byte("2")}, {Key: "", Value: []byte("3")}},
		"nil and empty values": {
			{Key: "k", Value: nil}, {Key: "k", Value: []byte{}}, {Key: "j", Value: nil}, {Key: "k", Value: []byte("x")},
		},
		"non-UTF-8": {
			{Key: "\xff\xfe", Value: []byte("1")}, {Key: "\xff", Value: []byte("2")},
			{Key: "\x00", Value: []byte("3")}, {Key: "\xff\xfe", Value: []byte("4")}, {Key: "a\x00b", Value: []byte("5")},
		},
	}
	var equal, distinct, prefixes, random, big []KV
	for i := 0; i < 500; i++ {
		equal = append(equal, KV{Key: "same", Value: tagged(i)})
		distinct = append(distinct, KV{Key: fmt.Sprintf("key-%05d", rng.Intn(1<<30)), Value: tagged(i)})
		// "a", "aa", "aaa", ... and their neighbours: every key a prefix
		// of the next, the order byte-wise comparison must get right.
		prefixes = append(prefixes, KV{Key: string(bytes.Repeat([]byte("a"), 1+rng.Intn(40))) + []string{"", "b", "\x00"}[rng.Intn(3)], Value: tagged(i)})
		key := make([]byte, rng.Intn(6))
		rng.Read(key)
		random = append(random, KV{Key: string(key), Value: tagged(i)})
	}
	for i := 0; i < 100_000; i++ {
		big = append(big, KV{Key: fmt.Sprintf("w%d", int(rng.ExpFloat64()*300)), Value: tagged(i)})
	}
	cases["all equal"], cases["all distinct"] = equal, distinct
	cases["shared prefixes"], cases["random bytes"], cases["100k skewed"] = prefixes, random, big
	return cases
}

// TestGroupingKernelMatchesReference checks both entry points of the
// kernel, GroupByKey and the reduce path's groupStreams, against the
// retained stable-sort implementation.
func TestGroupingKernelMatchesReference(t *testing.T) {
	for name, kvs := range groupingCases() {
		t.Run(name, func(t *testing.T) {
			want := referenceGroupByKey(kvs)
			if err := sameGroups(GroupByKey(kvs), want); err != nil {
				t.Errorf("GroupByKey: %v", err)
			}
			// The encoded stream does not carry nil-ness: every decoded
			// value is a (possibly empty) view of the stream.
			decoded := make([]KV, len(kvs))
			for i, kv := range kvs {
				decoded[i] = KV{Key: kv.Key, Value: append([]byte{}, kv.Value...)}
			}
			want = referenceGroupByKey(decoded)
			for _, n := range []int{1, 3} {
				if err := sameGroups(streamGroups(t, kvs, n), want); err != nil {
					t.Errorf("groupStreams over %d streams: %v", n, err)
				}
			}
		})
	}
}

func TestGroupStreamsRejectsCorruptStream(t *testing.T) {
	good := EncodeKVs([]KV{{Key: "a", Value: []byte("1")}})
	for _, streams := range [][][]byte{
		{good[:len(good)-1]},
		{good, {0, 0, 0, 9, 'x'}},
		{{0xff, 0xff, 0xff, 0xff}, good},
	} {
		if _, err := groupStreams(streams); err == nil {
			t.Errorf("groupStreams accepted %x", streams)
		}
	}
	gd, err := groupStreams(nil)
	if err != nil || len(gd.order) != 0 {
		t.Fatalf("empty input: %v, %d groups", err, len(gd.order))
	}
}

// TestGrouperReusesGroupsAcrossRounds pins what the emit-side combiner
// relies on: after each() a group's count is zero again and the same ids
// collect the next round, while the table keeps every key it has seen.
func TestGrouperReusesGroupsAcrossRounds(t *testing.T) {
	g := newGrouper(0)
	idOf := func(k string) (int32, bool) { return g.id(k, hashing.ShuffleKey(k)) }
	round := func(keys ...string) []Group {
		var ids, active []int32
		for _, k := range keys {
			id, _ := idOf(k)
			if g.at[id] == 0 {
				active = append(active, id)
			}
			g.at[id]++
			ids = append(ids, id)
		}
		g.sortByKey(active)
		slab := make([][]byte, g.layout(active))
		for i, id := range ids {
			slab[g.at[id]] = tagged(i)
			g.at[id]++
		}
		var out []Group
		_ = g.each(active, slab, func(key string, values [][]byte) error {
			out = append(out, Group{Key: key, Values: values})
			return nil
		})
		return out
	}
	first := round("b", "a", "b")
	if err := sameGroups(first, []Group{{"a", [][]byte{tagged(1)}}, {"b", [][]byte{tagged(0), tagged(2)}}}); err != nil {
		t.Fatalf("round 1: %v", err)
	}
	second := round("c", "b")
	if err := sameGroups(second, []Group{{"b", [][]byte{tagged(1)}}, {"c", [][]byte{tagged(0)}}}); err != nil {
		t.Fatalf("round 2: %v", err)
	}
	if len(g.keys) != 3 {
		t.Fatalf("table holds %d keys, want 3", len(g.keys))
	}
	// Enough keys to force several table doublings; every one must still
	// be found afterwards.
	for i := 0; i < 5000; i++ {
		idOf(fmt.Sprintf("k%d", i))
	}
	for i := 0; i < 5000; i++ {
		if _, fresh := idOf(fmt.Sprintf("k%d", i)); fresh {
			t.Fatalf("key k%d lost by table growth", i)
		}
	}
	k42 := []byte("k42")
	if id := g.idBytes(k42, hashing.ShuffleKey(k42)); g.keys[id] != "k42" {
		t.Fatalf("idBytes found %q", g.keys[id])
	}
	// A key already in the table is looked up straight from the stream's
	// bytes: the reduce path allocates per distinct key, not per pair.
	if n := testing.AllocsPerRun(100, func() { g.idBytes(k42, hashing.ShuffleKey(k42)) }); n != 0 {
		t.Fatalf("idBytes allocates %v times on a hit", n)
	}
}
