package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"eclipsemr/internal/blockbuf"
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

// cutStreams encodes kvs as n streams of consecutive pairs, the way a
// partition's spills arrive.
func cutStreams(kvs []KV, n int) [][]byte {
	streams := make([][]byte, n)
	for i := range streams {
		streams[i] = EncodeKVs(kvs[i*len(kvs)/n : (i+1)*len(kvs)/n])
	}
	return streams
}

// streamGroups runs the reduce path's entry point over streams and copies
// the groups out: the values slice is the kernel's to reuse.
func streamGroups(t *testing.T, streams [][]byte) []Group {
	t.Helper()
	gd, err := groupStreams(streams)
	if err != nil {
		t.Fatalf("groupStreams: %v", err)
	}
	var out []Group
	if err := gd.each(func(key string, values [][]byte) error {
		out = append(out, Group{Key: key, Values: slices.Clone(values)})
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
	// What an order by eight-byte windows can get wrong: keys that differ
	// only in trailing NUL bytes (the windows' padding), keys that end
	// exactly where a window does, keys equal for one, two and three
	// windows before they differ or end.
	for name, keys := range map[string][]string{
		"trailing NULs": {"a\x00", "a", "a\x00\x00", "", "\x00", "a\x00b", "a", "\x00\x00", "a\x00"},
		"window-sized keys": {
			"12345678", "1234567", "12345678\x00", "123456789", "12345678",
			"1234567890abcdef", "1234567890abcde", "1234567890abcdef\x00", "1234567890abcdefg", "1234567890abcdef",
			"12345678\x00\x00\x00\x00\x00\x00\x00\x00", "12345678\x00\x00\x00\x00\x00\x00\x00",
		},
		"shared windows": {
			"PPPPPPPPb", "PPPPPPPPa", "PPPPPPPP", "PPPPPPPPQQQQQQQQb", "PPPPPPPPQQQQQQQQ", "PPPPPPPPQQQQQQQQa",
			"PPPPPPPPQQQQQQQQRRRRRRRRz", "PPPPPPPPQQQQQQQQRRRRRRRR", "PPPPPPPPQQQQQQQQRRRRRRRRa", "PPPPPPPPa", "PPPPPPP",
			"PPPPPPPPQQQQQQQQRRRRRRRRa", "PPPPPPPPQQQQQQQQRRRRRRRR\x00", "PPPPPPPPQQQQQQQQb",
		},
	} {
		var kvs []KV
		for i := 0; i < 4*len(keys); i++ {
			kvs = append(kvs, KV{Key: keys[rng.Intn(len(keys))], Value: tagged(i)})
		}
		cases[name] = kvs
	}
	var equal, distinct, prefixes, random, big, hot, long []KV
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
		// One key with 100 K values, a neighbour either side now and then.
		key := "hot key"
		switch i % 500 {
		case 0:
			key = "hot ke"
		case 1:
			key = "hot key\x00"
		}
		hot = append(hot, KV{Key: key, Value: tagged(i)})
	}
	// Runs of every length around the radix sort's small-run cut, under
	// windows of their own and under a shared one.
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("%02d/%03d", i%7, rng.Intn(40*(i%7+1)))
		long = append(long, KV{Key: key, Value: tagged(i)}, KV{Key: "a shared window/" + key, Value: tagged(i)})
	}
	// Keys equal for thousands of windows before they differ or end.
	stem := strings.Repeat("0123456789abcdef", 4096)
	for i, tail := range []string{"b", "a", "", "a", "\x00", "ab", ""} {
		cases["long keys"] = append(cases["long keys"], KV{Key: stem + tail, Value: tagged(i)})
	}
	cases["all equal"], cases["all distinct"] = equal, distinct
	cases["shared prefixes"], cases["random bytes"], cases["100k skewed"] = prefixes, random, big
	cases["100k on one key"], cases["runs around the small-run cut"] = hot, long
	return cases
}

// TestGroupingKernelMatchesReference checks both entry points of the
// kernel, GroupByKey and the reduce path's groupStreams, against the
// retained stable-sort implementation.
func TestGroupingKernelMatchesReference(t *testing.T) {
	for name, kvs := range groupingCases() {
		t.Run(name, func(t *testing.T) {
			// The encoded stream does not carry nil-ness: every value
			// comes back a (possibly empty) view of a stream.
			decoded := make([]KV, len(kvs))
			for i, kv := range kvs {
				decoded[i] = KV{Key: kv.Key, Value: append([]byte{}, kv.Value...)}
			}
			want := referenceGroupByKey(decoded)
			if err := sameGroups(GroupByKey(kvs), want); err != nil {
				t.Errorf("GroupByKey: %v", err)
			}
			// Arrival order is stream by stream: one stream, a few, many
			// (a hot key's values then come from all of them), and empty
			// streams between full ones.
			gapped := [][]byte{nil}
			for _, s := range cutStreams(kvs, 5) {
				gapped = append(gapped, s, nil, []byte{})
			}
			for shape, streams := range map[string][][]byte{
				"1 stream": cutStreams(kvs, 1), "3 streams": cutStreams(kvs, 3),
				"64 streams": cutStreams(kvs, 64), "empty streams between": gapped,
			} {
				if err := sameGroups(streamGroups(t, streams), want); err != nil {
					t.Errorf("groupStreams, %s: %v", shape, err)
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
	if got := streamGroups(t, nil); len(got) != 0 {
		t.Fatalf("empty input: %d groups", len(got))
	}
}

// TestGroupStreamsLimits: the kernel's records hold 32-bit offsets and it
// counts pairs in an int32's range; input past either is refused, before
// any group is handed out, never wrapped.
func TestGroupStreamsLimits(t *testing.T) {
	kvs := []KV{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}, {Key: "a", Value: []byte("3")}}
	one := EncodeKVs(kvs)
	defer func(l uint64, p int) { maxStreamLen, maxPairs = l, p }(maxStreamLen, maxPairs)

	maxStreamLen = uint64(len(one)) - 1
	if _, err := groupStreams([][]byte{one}); err == nil || !strings.Contains(err.Error(), "stream of") {
		t.Errorf("a stream longer than the limit: %v", err)
	}
	// The limit is each stream's, not the partition's.
	maxStreamLen = uint64(len(one))
	if got := streamGroups(t, [][]byte{one, one}); len(got) != 2 || len(got[0].Values) != 4 {
		t.Errorf("two streams at the limit: %v", got)
	}
	maxPairs = 2*len(kvs) - 1
	if _, err := groupStreams([][]byte{one, one}); err == nil || !strings.Contains(err.Error(), "pairs to group") {
		t.Errorf("more pairs than the limit: %v", err)
	}
	maxPairs = 2 * len(kvs)
	if got := streamGroups(t, [][]byte{one, one}); len(got) != 2 {
		t.Errorf("pairs at the limit: %v", got)
	}
}

// TestGroupStreamsAllocatesPerPartition: the records, the keys' copies and
// the values scratch, whatever the pairs and groups number.
func TestGroupStreamsAllocatesPerPartition(t *testing.T) {
	if blockbuf.RaceEnabled {
		t.Skip("the race detector allocates too")
	}
	for name, streams := range reducePartitionShapes() {
		allocs := testing.AllocsPerRun(5, func() {
			gd, err := groupStreams(streams)
			if err != nil {
				t.Fatal(err)
			}
			_ = gd.each(func(key string, values [][]byte) error {
				benchSink += len(key) + len(values)
				return nil
			})
		})
		if allocs > 8 {
			t.Errorf("%s: %v allocations for one partition", name, allocs)
		}
	}
}

// TestReducerMayNotKeepValues: in race builds the values a function was
// handed are overwritten when it returns, on the reduce side and in the
// combiner's table alike, so keeping them shows at once.
func TestReducerMayNotKeepValues(t *testing.T) {
	if !blockbuf.RaceEnabled {
		t.Skip("values are poisoned in race builds only")
	}
	var kept [][]byte
	keep := func(_ string, values [][]byte) error {
		kept = values
		return nil
	}
	gd, err := groupStreams([][]byte{EncodeKVs([]KV{{Key: "k", Value: []byte("1")}, {Key: "k", Value: []byte("2")}})})
	if err != nil {
		t.Fatal(err)
	}
	if err := gd.each(keep); err != nil {
		t.Fatal(err)
	}
	if len(kept) != 2 || !bytes.Equal(kept[0], poisonedValue) || !bytes.Equal(kept[1], poisonedValue) {
		t.Errorf("groupStreams left %q with a function that kept its values", kept)
	}
	g := newGrouper(0)
	id, _ := g.id("k", hashing.ShuffleKey("k"))
	g.at[id]++
	slab := make([][]byte, g.layout([]int32{id}))
	slab[g.at[id]] = []byte("1")
	g.at[id]++
	if err := g.each([]int32{id}, slab, keep); err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || !bytes.Equal(kept[0], poisonedValue) {
		t.Errorf("grouper.each left %q with a function that kept its values", kept)
	}
}

// TestGrouperReusesGroupsAcrossRounds pins what the emit-side combiner
// relies on: a round's groups come in first-emit order, after each() a
// group's count is zero again and the same ids collect the next round,
// while the table keeps every key it has seen.
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
		slab := make([][]byte, g.layout(active))
		for i, id := range ids {
			slab[g.at[id]] = tagged(i)
			g.at[id]++
		}
		var out []Group
		_ = g.each(active, slab, func(key string, values [][]byte) error {
			out = append(out, Group{Key: key, Values: slices.Clone(values)})
			return nil
		})
		return out
	}
	first := round("b", "a", "b")
	if err := sameGroups(first, []Group{{"b", [][]byte{tagged(0), tagged(2)}}, {"a", [][]byte{tagged(1)}}}); err != nil {
		t.Fatalf("round 1: %v", err)
	}
	second := round("c", "b")
	if err := sameGroups(second, []Group{{"c", [][]byte{tagged(0)}}, {"b", [][]byte{tagged(1)}}}); err != nil {
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
	// A key already in the table allocates nothing: the combiner allocates
	// per distinct key, not per pair.
	if n := testing.AllocsPerRun(100, func() { idOf("k42") }); n != 0 {
		t.Fatalf("id allocates %v times on a hit", n)
	}
}
