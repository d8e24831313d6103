package hashing

import "math/bits"

// ShuffleKey returns the ring key of an intermediate (map output) key: the
// position the proactive shuffle looks up in a job's reduce RangeTable,
// and the hash the emit-side combiner indexes its table with. Intermediate
// keys are hashed once per emitted pair, so they get a fast non-
// cryptographic function instead of KeyOf's SHA-1: 16 bytes per 64x64→128
// multiply folded to 64 bits (the wyhash construction), then MurmurHash3's
// 64-bit finalizer so that every output bit, high (range lookup) and low
// (table slot), depends on every input bit.
//
// The function is seedless and reads its input byte by byte in a fixed
// (little-endian) order, so every node of any architecture places a key
// alike, and the string and []byte forms agree. It is part of what a job's
// stored intermediates mean: changing it needs a new partitioner id in
// package mapreduce, and the golden vectors in shufflekey_test.go fail.
// File, block and node placement (KeyOf, KeyOfString, BlockKey) stays on
// SHA-1: stored data depends on those, and they run once per block.
func ShuffleKey[K string | []byte](key K) Key {
	n := len(key)
	h := uint64(n) ^ shuffleM0
	i := 0
	for ; n-i > 16; i += 16 {
		h = fold(le64(key, i)^shuffleM1, le64(key, i+8)^h)
	}
	// The last 1-16 bytes as two words, one read forward from i and one
	// ending at the key's end. Between them they cover every byte left and
	// may overlap; the length mixed into h says by how much.
	var a, b uint64
	switch rest := n - i; {
	case rest >= 8:
		a, b = le64(key, i), le64(key, n-8)
	case rest >= 4:
		a, b = le32(key, i), le32(key, n-4)
	case rest > 0:
		a = uint64(key[i])<<16 | uint64(key[i+rest>>1])<<8 | uint64(key[n-1])
	}
	h = fold(a^shuffleM2, b^h)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return Key(h)
}

// Odd 64-bit constants with about half their bits set (wyhash's).
const (
	shuffleM0 = 0xa0761d6478bd642f
	shuffleM1 = 0xe7037ed1a0b428db
	shuffleM2 = 0x8ebc6af09c88c6e3
)

// fold multiplies to 128 bits and xors the halves.
func fold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

func le64[K string | []byte](k K, i int) uint64 {
	_ = k[i+7] // one bounds check
	return uint64(k[i]) | uint64(k[i+1])<<8 | uint64(k[i+2])<<16 | uint64(k[i+3])<<24 |
		uint64(k[i+4])<<32 | uint64(k[i+5])<<40 | uint64(k[i+6])<<48 | uint64(k[i+7])<<56
}

func le32[K string | []byte](k K, i int) uint64 {
	_ = k[i+3]
	return uint64(k[i]) | uint64(k[i+1])<<8 | uint64(k[i+2])<<16 | uint64(k[i+3])<<24
}
