// Package hashing provides the 64-bit hash-key space shared by every layer
// of EclipseMR: the DHT file system, the distributed in-memory cache, and
// the LAF job scheduler. Keys are derived from SHA-1 digests (the hash
// function the paper uses for its DHT file system) truncated to 64 bits,
// and all arithmetic is modulo 2^64 so the space forms a ring.
package hashing

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"strconv"
)

// Key is a position on the consistent-hash ring. The ring is the full
// uint64 space; arithmetic wraps modulo 2^64.
type Key uint64

// MaxKey is the largest representable key.
const MaxKey Key = ^Key(0)

// KeyOf returns the ring key for an arbitrary byte string: the first eight
// bytes of its SHA-1 digest, big-endian.
func KeyOf(data []byte) Key {
	sum := sha1.Sum(data)
	return Key(binary.BigEndian.Uint64(sum[:8]))
}

// KeyOfString returns the ring key for a string (file names, node names,
// intermediate-result keys).
func KeyOfString(s string) Key {
	return KeyOf([]byte(s))
}

// BlockKey returns the deterministic ring key for block index idx of the
// named file. Deriving block keys from (name, index) rather than block
// contents keeps placement stable across re-uploads and lets the scheduler
// predict block locations from metadata alone.
func BlockKey(name string, idx int) Key {
	return KeyOfString(name + ":" + strconv.Itoa(idx))
}

// String renders the key as fixed-width hexadecimal: sixteen lower-case
// digits. It names every cache entry and a block in logs, so it formats
// by hand.
func (k Key) String() string {
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], uint64(k))
	var digits [16]byte
	hex.Encode(digits[:], raw[:])
	return string(digits[:])
}

// Distance returns the clockwise distance from a to b on the ring.
func Distance(a, b Key) uint64 {
	return uint64(b - a) // wraps modulo 2^64 by definition
}

// Between reports whether k lies in the half-open clockwise arc (a, b].
// This is the Chord ownership test: the node at position b owns every key
// in (pred, b]. When a == b the arc is the entire ring.
func Between(k, a, b Key) bool {
	if a == b {
		return true
	}
	if a < b {
		return a < k && k <= b
	}
	return k > a || k <= b
}

// InRange reports whether k lies in the half-open clockwise arc [start,
// end). When start == end the arc is the entire ring.
func InRange(k, start, end Key) bool {
	if start == end {
		return true
	}
	if start < end {
		return start <= k && k < end
	}
	return k >= start || k < end
}
