package hashing

import "encoding/binary"

// Digest names one version of a stored block: the 20 bytes a block's
// writer takes over its content and every copy carries beside it, in the
// file's metadata, in a disk shard's block trailer and in a cache entry's
// identity. Readers compare digests and never recompute one, so a digest
// only has to tell two versions of a block apart; all zeros means "no
// digest" and is never produced.
type Digest [DigestSize]byte

// DigestSize is the length of a Digest in bytes.
const DigestSize = 20

// BlockDigest returns the digest of a block. Like ShuffleKey it trades a
// cryptographic hash for uniformity: a version name travels beside the
// data it names, so it guards against chance, never against chosen
// damage, and every block written is digested once, so the writer's pass
// over it has to run at memory speed.
//
// Four independent 64-bit lanes walk the block in 64-byte stripes; lane j
// folds bytes [16j, 16j+16) of every stripe into its state with ShuffleKey's
// 64x64→128 multiply, the state mixed into one factor. The last, partial
// stripe is zero-padded; the length seeds every lane, so padding and a
// real zero differ. Each of the three output words merges the four lanes
// by one of the three ways of pairing them and takes MurmurHash3's 64-bit
// finalizer; the digest is the first 20 of their 24 little-endian bytes.
//
// The function is seedless and reads bytes in a fixed (little-endian)
// order, so a block gets one name on every node and architecture. Readers
// only compare names, so blocks named by an earlier function (SHA-1) still
// read; the golden vectors in blockdigest_test.go pin this one.
func BlockDigest(data []byte) Digest {
	n := uint64(len(data))
	s0, s1, s2, s3 := digestS0^n, digestS1^n, digestS2^n, digestS3^n
	var tail [64]byte
	for len(data) > 0 {
		if len(data) < 64 {
			copy(tail[:], data)
			data = tail[:]
		}
		p := (*[64]byte)(data)
		s0 = fold(le64(p[:], 0)^shuffleM1, le64(p[:], 8)^s0)
		s1 = fold(le64(p[:], 16)^shuffleM1, le64(p[:], 24)^s1)
		s2 = fold(le64(p[:], 32)^shuffleM1, le64(p[:], 40)^s2)
		s3 = fold(le64(p[:], 48)^shuffleM1, le64(p[:], 56)^s3)
		data = data[64:]
	}
	var d Digest
	binary.LittleEndian.PutUint64(d[0:], digestMerge(s0, s1, s2, s3))
	binary.LittleEndian.PutUint64(d[8:], digestMerge(s0, s2, s3, s1))
	binary.LittleEndian.PutUint32(d[16:], uint32(digestMerge(s0, s3, s1, s2)))
	if d == (Digest{}) {
		d[0] = 1 // "no digest" is reserved; one in 2^160 inputs lands here
	}
	return d
}

// digestMerge is one output word of BlockDigest: the lanes folded as the
// pairs (a, b) and (c, d), each factor masked with its own constant so
// that no word is symmetric in its pairs.
func digestMerge(a, b, c, d uint64) uint64 {
	return fmix64(fold(a^shuffleM0, b^shuffleM1) + fold(c^shuffleM2, d^shuffleM0))
}

// fmix64 is MurmurHash3's 64-bit finalizer: a bijection under which every
// output bit depends on every input bit.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Lane seeds: odd 64-bit constants with about half their bits set
// (wyhash's later secret).
const (
	digestS0 = 0x2d358dccaa6c78a5
	digestS1 = 0x8bb84b93962eacc9
	digestS2 = 0x4b33a62ed433d4a3
	digestS3 = 0x4d5a2da51de1aa47
)
