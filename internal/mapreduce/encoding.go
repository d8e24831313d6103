package mapreduce

import (
	"encoding/binary"
	"fmt"
)

// KV is one key-value pair in the intermediate and output streams.
type KV struct {
	Key   string
	Value []byte
}

// Intermediate spills and reduce outputs cross the wire and the DHT file
// system as flat streams of length-prefixed pairs:
//
//	u32 keyLen | key | u32 valueLen | value | ...
//
// A hand-rolled format (rather than gob) keeps spills append-concatenable:
// the byte concatenation of two streams is the stream of their
// concatenated pairs, which is exactly what segment append gives us.

// AppendKV appends one encoded pair to buf and returns the extended slice.
func AppendKV(buf []byte, kv KV) []byte {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(kv.Key)))
	buf = append(buf, l[:]...)
	buf = append(buf, kv.Key...)
	binary.BigEndian.PutUint32(l[:], uint32(len(kv.Value)))
	buf = append(buf, l[:]...)
	buf = append(buf, kv.Value...)
	return buf
}

// EncodeKVs encodes a pair slice as one stream.
func EncodeKVs(kvs []KV) []byte {
	size := 0
	for _, kv := range kvs {
		size += 8 + len(kv.Key) + len(kv.Value)
	}
	buf := make([]byte, 0, size)
	for _, kv := range kvs {
		buf = AppendKV(buf, kv)
	}
	return buf
}

// DecodeKVs parses a stream back into pairs. Values are copied out of
// data (into one allocation the pairs share), so the result outlives the
// input buffer.
func DecodeKVs(data []byte) ([]KV, error) {
	// Count first: the pair slice and the value copy are then allocated
	// once at their exact sizes instead of grown pair by pair.
	pairs, valueBytes := 0, 0
	for off := 0; off < len(data); {
		_, value, next, err := nextKV(data, off)
		if err != nil {
			return nil, err
		}
		pairs++
		valueBytes += len(value)
		off = next
	}
	if pairs == 0 {
		return nil, nil
	}
	out := make([]KV, 0, pairs)
	values := make([]byte, 0, valueBytes)
	for off := 0; off < len(data); {
		key, value, next, _ := nextKV(data, off) // cannot fail: the counting pass validated the stream
		at := len(values)
		values = append(values, value...)
		out = append(out, KV{Key: string(key), Value: values[at:len(values):len(values)]})
		off = next
	}
	return out, nil
}

// nextKV parses the pair at data[off:]. Key and value alias data; next is
// the offset of the following pair.
func nextKV(data []byte, off int) (key, value []byte, next int, err error) {
	if off+4 > len(data) {
		return nil, nil, 0, fmt.Errorf("mapreduce: truncated key length at offset %d", off)
	}
	// The wire lengths are untrusted u32s: bound them against the
	// remaining bytes in uint64 space *before* converting to int, so a
	// corrupt stream with a length >= 2^31 errors out instead of going
	// negative and panicking on 32-bit platforms.
	klen64 := uint64(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if klen64 > uint64(len(data)-off) {
		return nil, nil, 0, fmt.Errorf("mapreduce: truncated key at offset %d", off)
	}
	klen := int(klen64)
	key = data[off : off+klen : off+klen]
	off += klen
	if off+4 > len(data) {
		return nil, nil, 0, fmt.Errorf("mapreduce: truncated value length at offset %d", off)
	}
	vlen64 := uint64(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if vlen64 > uint64(len(data)-off) {
		return nil, nil, 0, fmt.Errorf("mapreduce: truncated value at offset %d", off)
	}
	vlen := int(vlen64)
	return key, data[off : off+vlen : off+vlen], off + vlen, nil
}
