package hashing_test

import (
	"encoding/hex"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"eclipsemr/internal/hashing"
)

// refBlockDigest is BlockDigest's specification, one byte at a time: the
// input zero-padded to whole 64-byte stripes, each lane's two words
// assembled little-endian byte by byte, the same fold, merge and
// finalizer. It shares no code with the package.
func refBlockDigest(data []byte) hashing.Digest {
	const (
		m0 = 0xa0761d6478bd642f
		m1 = 0xe7037ed1a0b428db
		m2 = 0x8ebc6af09c88c6e3
	)
	fold := func(a, b uint64) uint64 {
		hi, lo := bits.Mul64(a, b)
		return hi ^ lo
	}
	fmix := func(h uint64) uint64 {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		return h ^ h>>33
	}
	n := uint64(len(data))
	lanes := [4]uint64{0x2d358dccaa6c78a5 ^ n, 0x8bb84b93962eacc9 ^ n, 0x4b33a62ed433d4a3 ^ n, 0x4d5a2da51de1aa47 ^ n}
	padded := make([]byte, (len(data)+63)/64*64)
	copy(padded, data)
	word := func(at int) uint64 {
		var w uint64
		for b := 0; b < 8; b++ {
			w |= uint64(padded[at+b]) << (8 * b)
		}
		return w
	}
	for stripe := 0; stripe < len(padded); stripe += 64 {
		for j := range lanes {
			lanes[j] = fold(word(stripe+16*j)^m1, word(stripe+16*j+8)^lanes[j])
		}
	}
	merge := func(a, b, c, d int) uint64 {
		return fmix(fold(lanes[a]^m0, lanes[b]^m1) + fold(lanes[c]^m2, lanes[d]^m0))
	}
	var d hashing.Digest
	for i, w := range []uint64{merge(0, 1, 2, 3), merge(0, 2, 3, 1), merge(0, 3, 1, 2)} {
		for b := 0; b < 8 && 8*i+b < len(d); b++ {
			d[8*i+b] = byte(w >> (8 * b))
		}
	}
	if d == (hashing.Digest{}) {
		d[0] = 1
	}
	return d
}

// TestBlockDigestGolden pins the function: stored metadata, block trailers
// and cache identities hold its values, so a change here is a new naming
// of blocks, made on purpose, never an edit of these values. The lengths
// cover an empty block, every tail shape around the 8-, 16- and 64-byte
// boundaries, many stripes, and a full 256 KiB block with a 3-byte tail.
func TestBlockDigestGolden(t *testing.T) {
	golden := map[int]string{
		0:           "91fd0e0323139b491e284d57a96843cc8b1521ee",
		1:           "bba8aab58f30c8182195a814ea3f9ab2d9ca24a4",
		7:           "d6e908ec20a88e642072730e62ab345ab892c4a1",
		8:           "7fdc2cfe6a5331f951d034ef6bc4b31cc730cd40",
		15:          "baa6e510495baa67881a5cda161d0d818aa385c0",
		16:          "49ee2998103cf5c03ef1cf16fd0667d69cdd2aec",
		63:          "f87eba0dd568534ff4243b39047a1118f572e70d",
		64:          "b216b26a34a9a03305d0fa86ab3cbb28fa2b9d7e",
		65:          "6c9b01b66fdcab2d042d8f7ecb5ed4355e487d73",
		127:         "b0b217ae34dd99e4bc82243742047031564b7790",
		128:         "27f52de1b20c24ec63e4005703a58875cd19a2e3",
		4096:        "1bd0a9b89deae53f218f36aea68c19dd2a3ec0de",
		256<<10 + 3: "a242fea20c5932c6eaf0c2d59c4bebfed267b71e",
	}
	for n, want := range golden {
		got := hashing.BlockDigest(goldenKey(n))
		if hex.EncodeToString(got[:]) != want {
			t.Errorf("BlockDigest(%d bytes) = %x, want %s", n, got, want)
		}
		if ref := refBlockDigest(goldenKey(n)); ref != got {
			t.Errorf("BlockDigest(%d bytes) = %x, the byte-at-a-time reference says %x", n, got, ref)
		}
	}
}

// TestBlockDigestNeverZero: all zeros is "no digest" on the wire and in a
// trailer, and Service.putBlock refuses it. An empty file still splits
// into one empty block, so the empty input must get a real name too, as
// must blocks of zeros, which a padded tail resembles.
func TestBlockDigestNeverZero(t *testing.T) {
	inputs := [][]byte{nil, {}, make([]byte, 256<<10)}
	for n := 1; n <= 200; n++ {
		inputs = append(inputs, make([]byte, n), goldenKey(n))
	}
	for _, in := range inputs {
		if hashing.BlockDigest(in) == (hashing.Digest{}) {
			t.Errorf("BlockDigest(%d bytes %.8q...) is all zeros", len(in), in)
		}
	}
}

// randomBlock is a full 256 KiB block of seeded random bytes.
func randomBlock(seed int64) []byte {
	block := make([]byte, 256<<10)
	rand.New(rand.NewSource(seed)).Read(block)
	return block
}

// TestBlockDigestBitFlips: one flipped bit anywhere in a block, the tail
// included, renames it. This is the damage a version name exists to tell
// apart from the version the metadata holds.
func TestBlockDigestBitFlips(t *testing.T) {
	block := randomBlock(45)
	want := hashing.BlockDigest(block)
	rng := rand.New(rand.NewSource(4501))
	positions := []int{0, 7, 8, 15, 16, 63, 64, len(block) - 1}
	for len(positions) < 4096 {
		positions = append(positions, rng.Intn(len(block)))
	}
	for _, p := range positions {
		bit := byte(1) << rng.Intn(8)
		block[p] ^= bit
		if hashing.BlockDigest(block) == want {
			t.Fatalf("flipping bit %#02x of byte %d left the digest %x", bit, p, want)
		}
		block[p] ^= bit
	}
	if hashing.BlockDigest(block) != want {
		t.Fatal("the restored block digests differently")
	}
}

// TestBlockDigestOrder: the digest depends on where bytes sit, not only on
// which stripes or lane words a block holds. Each case swaps two 16-byte
// pieces of a random block: whole 64-byte stripes, one lane's words of two
// stripes, and two lanes' words of one stripe.
func TestBlockDigestOrder(t *testing.T) {
	block := randomBlock(7)
	want := hashing.BlockDigest(block)
	swap := func(a, b, size int) {
		tmp := make([]byte, size)
		copy(tmp, block[a:a+size])
		copy(block[a:a+size], block[b:b+size])
		copy(block[b:b+size], tmp)
	}
	cases := []struct {
		name       string
		a, b, size int
	}{
		{"stripes 0 and 1", 0, 64, 64},
		{"stripes 3 and 4000", 3 * 64, 4000 * 64, 64},
		{"lane 0 of stripes 0 and 1", 0, 64, 16},
		{"lane 2 of stripes 10 and 900", 10*64 + 32, 900*64 + 32, 16},
		{"lanes 0 and 1 of stripe 0", 0, 16, 16},
		{"lanes 1 and 3 of stripe 77", 77*64 + 16, 77*64 + 48, 16},
		{"lane 0 of stripe 5 and lane 3 of stripe 6", 5 * 64, 6*64 + 48, 16},
	}
	for _, c := range cases {
		swap(c.a, c.b, c.size)
		if hashing.BlockDigest(block) == want {
			t.Errorf("swapping %s left the digest unchanged", c.name)
		}
		swap(c.a, c.b, c.size)
	}
}

// TestBlockDigestZeroPadding: a short tail is padded with zeros, so a
// block and the same block with zeros appended must still differ. The
// length seeds every lane; without it these three would collide.
func TestBlockDigestZeroPadding(t *testing.T) {
	seen := make(map[hashing.Digest]string)
	for _, in := range []string{"a", "a\x00", "a\x00\x00", "", "\x00", string(make([]byte, 64)), string(make([]byte, 65))} {
		d := hashing.BlockDigest([]byte(in))
		if prev, ok := seen[d]; ok {
			t.Errorf("BlockDigest(%q) = BlockDigest(%q) = %x", in, prev, d)
		}
		seen[d] = in
	}
}

// FuzzBlockDigest: the unrolled function agrees with the byte-at-a-time
// reference on every input, and one flipped bit changes the digest.
func FuzzBlockDigest(f *testing.F) {
	for _, n := range []int{0, 1, 7, 8, 15, 16, 63, 64, 65, 127, 128, 200} {
		f.Add(goldenKey(n), uint32(n))
	}
	f.Add(make([]byte, 130), uint32(129))
	f.Fuzz(func(t *testing.T, data []byte, flip uint32) {
		got := hashing.BlockDigest(data)
		if want := refBlockDigest(data); got != want {
			t.Fatalf("BlockDigest(%x) = %x, reference %x", data, got, want)
		}
		if len(data) == 0 {
			return
		}
		pos, bit := int(flip>>3)%len(data), byte(1)<<(flip&7)
		flipped := slices.Clone(data)
		flipped[pos] ^= bit
		if hashing.BlockDigest(flipped) == got {
			t.Fatalf("flipping bit %#02x of byte %d left the digest %x", bit, pos, got)
		}
	})
}
