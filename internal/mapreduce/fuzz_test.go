package mapreduce

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"eclipsemr/internal/hashing"
)

// FuzzDecodeKVs exercises the spill codec on arbitrary byte streams: the
// decoder must never panic, and any stream it accepts must re-encode to
// the identical bytes (the format is canonical — this is what makes
// segment append-concatenation sound).
func FuzzDecodeKVs(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeKVs([]KV{{Key: "a", Value: []byte("1")}}))
	f.Add(EncodeKVs([]KV{
		{Key: "", Value: nil},
		{Key: "hello", Value: []byte("world")},
		{Key: "hello", Value: bytes.Repeat([]byte{0xff}, 100)},
	}))
	f.Add([]byte{0, 0, 0, 1, 'k'})             // truncated value length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'}) // absurd key length
	// Lengths at exactly 2^31: int(uint32) wraps negative on 32-bit
	// platforms if converted before validation (the overflow regression).
	f.Add([]byte{0x80, 0x00, 0x00, 0x00, 'x'})
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 'k', 0x80, 0x00, 0x00, 0x00, 'v'})
	f.Fuzz(func(t *testing.T, data []byte) {
		kvs, err := DecodeKVs(data)
		if err != nil {
			return // rejected streams just need to not panic
		}
		round := EncodeKVs(kvs)
		if !bytes.Equal(round, data) {
			t.Fatalf("accepted stream is not canonical: %x re-encodes to %x", data, round)
		}
		// A second decode of the re-encoding must agree.
		again, err := DecodeKVs(round)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if len(again) != len(kvs) {
			t.Fatalf("round trip changed pair count: %d -> %d", len(kvs), len(again))
		}
		for i := range kvs {
			if again[i].Key != kvs[i].Key || !bytes.Equal(again[i].Value, kvs[i].Value) {
				t.Fatalf("pair %d changed: %+v -> %+v", i, kvs[i], again[i])
			}
		}
	})
}

// fuzzPairs turns arbitrary bytes into a pair list with plenty of repeated
// keys: each pair is a head byte, head%4 key bytes and one value byte, read
// until the input runs out. The head's next two bits put zero to three
// eight-byte windows of one repeated byte in front of the key bytes ('p',
// or NUL if the fifth bit is set), so that keys share whole windows of the
// ordering kernel, end exactly where one does, and differ in trailing NULs.
func fuzzPairs(data []byte) []KV {
	var kvs []KV
	for len(data) > 0 {
		head := data[0]
		klen := int(head) % 4
		data = data[1:]
		if klen > len(data) {
			klen = len(data)
		}
		lead := "p"
		if head&16 != 0 {
			lead = "\x00"
		}
		key := strings.Repeat(lead, 8*int(head>>2&3)) + string(data[:klen])
		data = data[klen:]
		value := []byte{} // not nil: neither entry point of the kernel carries nil-ness
		if len(data) > 0 {
			value, data = data[:1:1], data[1:]
		}
		kvs = append(kvs, KV{Key: key, Value: value})
	}
	return kvs
}

// FuzzGroupByKey checks the ordering kernel against the retained
// stable-sort reference on arbitrary pair lists, through both of its
// entry points: GroupByKey, and groupStreams over the encoded pairs cut
// into two streams with an empty one between them.
func FuzzGroupByKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 'v'})                                                                             // one pair, empty key
	f.Add([]byte{1, 'k', '1', 1, 'k', '2', 1, 'j', '3'})                                              // a repeated key around another
	f.Add([]byte{2, 'a', 'b', 'x', 1, 'a', 'y', 3, 'a', 'b', 'c', 'z'})                               // shared prefixes
	f.Add([]byte{1, 0xff, 1, 1, 0xfe, 2, 1, 0xff, 3, 2, 0xff, 0x00, 4})                               // non-UTF-8 keys
	f.Add([]byte{1, 'k'})                                                                             // last pair has no value byte
	f.Add([]byte{2, 'a', 0, '1', 1, 'a', '2', 3, 'a', 0, 0, '3', 0, '4', 1, 0, '5', 2, 'a', 0, '6'})  // keys that differ only in trailing NULs
	f.Add([]byte{4, '1', 5, 'a', '2', 8, '3', 4, '4', 9, 'a', '5', 4 + 1, 0, '6'})                    // keys of exactly 8 and 16 bytes, one byte more, a NUL more
	f.Add([]byte{13, 'b', '1', 9, 'a', '2', 13, 'a', '3', 12, '4', 5, 'a', '5', 13, 'b', '6'})        // keys sharing 8-, 16- and 24-byte prefixes
	f.Add([]byte{16 + 4, '1', 16 + 8, '2', 16, '3', 16 + 1, 0, '4', 16 + 4 + 1, 0, '5', 16 + 4, '6'}) // keys of NULs only, one to sixteen
	f.Fuzz(func(t *testing.T, data []byte) {
		kvs := fuzzPairs(data)
		before := append([]KV(nil), kvs...)
		want := referenceGroupByKey(kvs)
		if err := sameGroups(GroupByKey(kvs), want); err != nil {
			t.Fatalf("GroupByKey: %v", err)
		}
		for i := range kvs {
			if kvs[i].Key != before[i].Key || !bytes.Equal(kvs[i].Value, before[i].Value) {
				t.Fatalf("GroupByKey changed input pair %d", i)
			}
		}
		streams := [][]byte{EncodeKVs(kvs[:len(kvs)/2]), nil, EncodeKVs(kvs[len(kvs)/2:])}
		gd, err := groupStreams(streams)
		if err != nil {
			t.Fatalf("groupStreams: %v", err)
		}
		i := 0
		err = gd.each(func(key string, values [][]byte) error {
			if i >= len(want) || key != want[i].Key || len(values) != len(want[i].Values) {
				t.Fatalf("groupStreams group %d: key %q with %d values", i, key, len(values))
			}
			for j, v := range values {
				if !bytes.Equal(v, want[i].Values[j]) {
					t.Fatalf("groupStreams group %q value %d: %q, want %q", key, j, v, want[i].Values[j])
				}
			}
			i++
			return nil
		})
		if err != nil || i != len(want) {
			t.Fatalf("groupStreams visited %d of %d groups: %v", i, len(want), err)
		}
	})
}

// combineFuzzTask decodes arbitrary bytes into one map task for
// FuzzCombineEmitter. The first byte sets the spill threshold (1 to 1021
// raw bytes), the second the reduce partition count (1 to 4), whether the
// task runs on a state a worker lent it after an earlier task, and an
// OnlyPartitions filter (a mask over partitions 0 to 3, whichever exist;
// none set is no filter). Every two bytes after that are a pair: a key of
// a sixteen-word alphabet and a count, most often one digit, sometimes
// several, signed, at the int64 limits or malformed.
func combineFuzzTask(data []byte) (req RunMapReq, parts int, lent bool, pairs []KV) {
	if len(data) < 2 {
		return RunMapReq{SpillThreshold: 1}, 1, false, nil
	}
	req.SpillThreshold = 1 + 4*int(data[0])
	parts, lent = 1+int(data[1]&3), data[1]&4 != 0
	for p := 0; p < 4; p++ {
		if data[1]>>3&(1<<p) != 0 {
			req.OnlyPartitions = append(req.OnlyPartitions, p)
		}
	}
	keys := []string{"a", "b", "ab", "ba", "", "the", "a\x00", "zz", "of", "and", "to", "in", "is", "it", "an", "x"}
	malformed := []string{"", "x", "1x", " 1", "--1", "99999999999999999999"}
	for data = data[2:]; len(data) >= 2; data = data[2:] {
		head, v := data[0], data[1]
		var value string
		switch kind := head >> 4; {
		case kind < 12:
			value = strconv.Itoa(int(v % 10))
		case kind == 12:
			value = strconv.Itoa(int(int8(v)) * 37)
		case kind == 13 && v%2 == 0:
			value = strconv.FormatInt(math.MaxInt64-int64(v), 10)
		case kind == 13:
			value = strconv.FormatInt(math.MinInt64+int64(v), 10)
		case kind == 14:
			value = malformed[int(v)%len(malformed)]
		default:
			value = "+" + strconv.Itoa(int(v%10))
		}
		pairs = append(pairs, KV{Key: keys[head&15], Value: []byte(value)})
	}
	return req, parts, lent, pairs
}

// FuzzCombineEmitter holds the combining emitter, on a fresh state or on
// one a worker lends it after an earlier task, to the reference pipeline
// built from the application's reducer alone (referenceSpills): the same
// spills, segment for segment (partition, sequence number and bytes), and
// the same first error when a count does not parse.
func FuzzCombineEmitter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{255, 3, 0, 1, 1, 1, 2, 1, 0, 1, 3, 1, 4, 1, 1, 1, 0, 1}) // one spill per partition at the end
	f.Add([]byte{0, 2, 0, 1, 1, 2, 0, 3})                                 // every pair its own spill
	f.Add([]byte{8, 7, 0, 1, 1, 2, 226, 3, 0, 4, 1, 5})                   // a malformed count mid-spill, on a lent state
	f.Add([]byte{16, 3 | 5<<3, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 6, 7, 7, 8}) // partitions 0 and 2 only
	f.Add([]byte{64, 0 | 12<<3, 0, 1, 1, 1})                              // a filter of partitions that do not exist
	f.Fuzz(func(t *testing.T, data []byte) {
		req, parts, lent, pairs := combineFuzzTask(data)
		ids := make([]hashing.NodeID, parts)
		for i := range ids {
			ids[i] = hashing.NodeID(fmt.Sprintf("n%d", i))
		}
		table, err := hashing.UniformRangeTable(ids)
		if err != nil {
			t.Fatal(err)
		}
		wc := mustLookup("test-wordcount")
		app := App{Reduce: wc.Reduce, Combine: wc.Combine, Map: func(_ Params, _ []byte, emit Emit) error {
			for _, kv := range pairs {
				if err := emit(kv.Key, kv.Value); err != nil {
					return err
				}
			}
			return nil
		}}
		var state *combineState
		if lent {
			w := &Worker{}
			earlier := w.borrowCombineState()
			// The earlier task counts only for the state it leaves behind.
			_, _ = emitterSpills(app, table, RunMapReq{SpillThreshold: 1 + req.SpillThreshold/2}, nil, earlier)
			w.returnCombineState(earlier)
			state = w.borrowCombineState()
		}
		got, gotErr := emitterSpills(app, table, req, nil, state)
		want, wantErr := referenceSpills(app, table, req, nil)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("the emitter fails with %v, the reference with %v", gotErr, wantErr)
		}
		if err := sameSpills(got, want); err != nil {
			t.Fatal(err)
		}
	})
}
