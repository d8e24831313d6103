package mapreduce

import (
	"encoding/binary"
	"fmt"
	"strings"
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

// DecodeKVs parses a stream back into pairs. Keys and values are copied
// out of data, so the result outlives the input buffer, into one
// allocation each for the whole stream: every KV.Key is a substring of one
// string and every KV.Value a subslice of one array, which a pair that is
// kept keeps alive whole.
func DecodeKVs(data []byte) ([]KV, error) {
	size, err := sizeKVs(data)
	if err != nil || size.pairs == 0 {
		return nil, err
	}
	return appendKVs(make([]KV, 0, size.pairs), data, size), nil
}

// kvSize is what decoding a stream takes: the pair slice, the key string
// and the value array are each allocated once at their exact sizes
// instead of grown pair by pair.
type kvSize struct{ pairs, keyBytes, valueBytes int }

// sizeKVs validates a stream and counts what is in it.
func sizeKVs(data []byte) (kvSize, error) {
	var size kvSize
	for off := 0; off < len(data); size.pairs++ {
		key, value, next, err := nextKV(data, off)
		if err != nil {
			return kvSize{}, err
		}
		size.keyBytes += len(key)
		size.valueBytes += len(value)
		off = next
	}
	return size, nil
}

// appendKVs decodes onto dst the stream sizeKVs found to be size.
func appendKVs(dst []KV, data []byte, size kvSize) []KV {
	var keys strings.Builder
	keys.Grow(size.keyBytes)
	values := make([]byte, 0, size.valueBytes)
	for off := 0; off < len(data); {
		key, value, next, _ := nextKV(data, off) // cannot fail: sizeKVs validated the stream
		k, v := keys.Len(), len(values)
		keys.Write(key)
		values = append(values, value...)
		dst = append(dst, KV{Key: keys.String()[k:], Value: values[v:len(values):len(values)]})
		off = next
	}
	return dst
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
