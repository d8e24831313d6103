package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/hashing"
)

// Group is one reduce input: a key and all of its values.
type Group struct {
	Key    string
	Values [][]byte
}

// grouper is the emit-side combiner's table (combineEmitter). It maps
// every pair's key, in emit order, to a dense group id, under which the
// emitter keeps the key's partition and accumulator (groupAcc).
//
// The table does not hash: h is the key's hashing.ShuffleKey, which the
// emitter has computed anyway to place the pair on the ring, so a pair is
// hashed once. The low bits pick the slot and the high 32 are kept to skip
// key compares.
//
// The index is an open-addressing table of group ids (4 bytes a slot)
// beside the dense per-group arrays, a fraction of a map[string]int32's
// footprint. The zero grouper is an empty table; it lives in a worker's
// combineState and is reset, not rebuilt, between tasks. Group ids are
// int32, so one grouper takes at most 2^31-1 keys.
// The reduce side uses no table: see groupStreams.
type grouper struct {
	// slots holds id+1 at the key's probe position, 0 when empty; its
	// length is a power of two kept at least twice the group count.
	slots  []int32
	hashes []uint32 // per group: the high hash bits, to skip most key compares
	keys   []string
}

// firstSlots is the table's size before its first growth.
const firstSlots = 64

// reset empties the table and keeps its arrays. keys is cleared, not only
// truncated: a key of the last task may hold that task's input alive.
func (g *grouper) reset() {
	clear(g.slots)
	clear(g.keys)
	g.keys, g.hashes = g.keys[:0], g.hashes[:0]
}

// id returns the group of key, whose hashing.ShuffleKey is h, creating it
// on first sight.
func (g *grouper) id(key string, h hashing.Key) (id int32, fresh bool) {
	if len(g.slots) == 0 {
		g.slots = make([]int32, firstSlots)
	}
	mask := len(g.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := g.slots[i]
		if s == 0 {
			return g.insert(i, uint64(h), key), true
		}
		if g.hashes[s-1] == uint32(h>>32) && g.keys[s-1] == key {
			return s - 1, false
		}
	}
}

func (g *grouper) insert(slot int, h uint64, key string) int32 {
	id := int32(len(g.keys))
	g.keys = append(g.keys, key)
	g.hashes = append(g.hashes, uint32(h>>32))
	g.slots[slot] = id + 1
	if 2*len(g.keys) > len(g.slots) {
		g.grow()
	}
	return id
}

// grow doubles the table. Slot positions need the low hash bits, which are
// not kept, so every key is hashed again: log2(groups) times a key at
// most, against once per pair for everything else. A table that has grown
// stays grown for the tasks after.
func (g *grouper) grow() {
	g.slots = make([]int32, 2*len(g.slots))
	mask := len(g.slots) - 1
	for id, key := range g.keys {
		i := int(hashing.ShuffleKey(key)) & mask
		for g.slots[i] != 0 {
			i = (i + 1) & mask
		}
		g.slots[i] = int32(id) + 1
	}
}

// poisonValues overwrites, in race builds, the values a ReduceFunc was
// handed once it has returned (the blockbuf precedent): a function that
// kept the slice, which types.go forbids, then reads these bytes at once
// instead of passing until the scratch behind it is next reused.
func poisonValues(values [][]byte) {
	if blockbuf.RaceEnabled {
		for i := range values {
			values[i] = poisonedValue
		}
	}
}

// poisonArena overwrites, in race builds, arena up to its capacity when
// the bytes are done with: a function that kept some of them reads poison
// at once.
func poisonArena(arena []byte) {
	if blockbuf.RaceEnabled {
		arena = arena[:cap(arena)]
		for i := range arena {
			arena[i] = poisonByte
		}
	}
}

const poisonByte = 0xDB

var poisonedValue = bytes.Repeat([]byte{poisonByte}, 8)

// pairRec is one pair of a reduce bucket as the ordering kernel sees it:
// where the pair sits in the scatter buffer, and the digit of its key
// being ordered on.
type pairRec struct {
	digit uint64
	off   int // of the pair in streamOrder.buf
}

// keyDigit is what the order looks at in key at one level. Even levels
// are the key's bytes eight at a time, level 2i being key[8i:8i+8] as a
// big-endian integer, padded with zero bytes where the key ends: two such
// windows that differ order as their keys do, two that are equal say
// nothing yet, since the keys may go on, or one may end in zero bytes the
// other does not have. Level 2i+1 therefore counts how many of those eight
// bytes were the key's own: of keys with equal windows one that ends
// inside (the rest is padding) is a prefix of every longer one, and two
// that end at the same byte are equal. Keys read digit by digit in this
// way order as they do byte by byte. A key is asked for no window beyond
// the first that holds none of its bytes: the count there is 0, which
// only an equal key shares. The walk hands it the keys of a bucket from
// the bucket's base on: the bytes before are the same in all of them.
func keyDigit(key []byte, level int) uint64 {
	rest := key[level/2*8:]
	switch {
	case level%2 == 1:
		return uint64(min(len(rest), 8))
	case len(rest) >= 8:
		return binary.BigEndian.Uint64(rest)
	case cap(rest) >= 8:
		// What follows the key in its buffer is read with it and masked
		// off: one load, not a byte at a time.
		return binary.BigEndian.Uint64(rest[:8]) &^ (math.MaxUint64 >> (8 * len(rest)))
	}
	var w uint64
	for _, b := range rest {
		w = w<<8 | uint64(b)
	}
	return w << (8 * (8 - len(rest)))
}

// The kernel counts pairs in an int32's range (radixSort's counts are
// 32-bit). A variable so that a test can reach the limit without 2^31
// pairs.
var maxPairs = math.MaxInt32

// buckets is how many the scatter makes: one for the keys that end at the
// partition's depth and one per value of the byte there.
const buckets = 1 + 256

// streamOrder is a reduce partition's pairs put in the order its reducer
// reads them: by key, byte-wise, and arrival order (stream by stream, then
// offset) among the pairs of one key. It is also the memory that order is
// made in, which a Worker lends its reduce tasks (borrowReduceState).
type streamOrder struct {
	// buf holds the partition's pairs, encoded as in their streams,
	// scattered bucket by bucket in arrival order; bucket b ends at
	// ends[b] and starts where bucket b-1 ends.
	buf  []byte
	ends [buckets]int
	// depth is the first position at which the partition's keys differ.
	// Bucket 0 holds the pairs whose key ends there, all of them equal,
	// and bucket 1+c those whose key has byte c there.
	depth int
	// base is where the keys of the bucket being walked start to differ:
	// depth in bucket 0, depth+1 in the others.
	base int
	// recs is room for the largest bucket's records and as many again,
	// where a radix pass puts what it reads from the others.
	recs []pairRec
	// keys holds the copy of every key handed out so far; it is made
	// with room for all of them and so never moves.
	keys strings.Builder
	// values is what the current group's values are handed over in.
	values [][]byte
}

// groupStreams orders the concatenation of encoded streams for each, in a
// new streamOrder (see group).
func groupStreams(streams [][]byte) (*streamOrder, error) {
	g := new(streamOrder)
	if err := g.group(streams); err != nil {
		return nil, err
	}
	return g, nil
}

// group orders the concatenation of encoded streams for each, without
// hashing a key or comparing two whole keys to order them. It validates
// every stream before anything else happens, and fails if the pairs
// number more than 2^31-1. The streams are read only here: each reads the
// pairs from g's scatter buffer, which holds the values it hands out.
//
// The counting pass finds where the keys first differ (depth) and what
// each bucket at that byte will hold; the scatter then copies every pair
// into its bucket, and each orders one bucket at a time while its bytes
// are in cache. A prefix all keys share costs no pass: the buckets, and
// the first digit of each key's records (keyDigit), start past it.
// Nothing is allocated but room for a copy of every key and, when g's
// are too small, the scatter buffer, the records and the values scratch.
func (g *streamOrder) group(streams [][]byte) error {
	var pairsIn, bytesIn [buckets]int
	pairs, total, keyBytes := 0, 0, 0
	var first []byte
	depth := -1
	for _, data := range streams {
		for off := 0; off < len(data); {
			key, _, next, err := nextKV(data, off)
			if err != nil {
				return err
			}
			if depth < 0 {
				first, depth = key, len(key)
			} else if d := commonPrefix(first[:depth], key); d < depth {
				// Every key so far shares first's bytes up to the old
				// depth: its byte at d is first's.
				pairsIn, bytesIn = [buckets]int{}, [buckets]int{}
				pairsIn[1+int(first[d])], bytesIn[1+int(first[d])] = pairs, total
				depth = d
			}
			b := bucketOf(key, depth)
			pairsIn[b]++
			bytesIn[b] += next - off
			pairs, total, keyBytes = pairs+1, total+next-off, keyBytes+len(key)
			off = next
		}
	}
	if pairs > maxPairs {
		return fmt.Errorf("mapreduce: %d pairs to group, the kernel takes at most %d", pairs, maxPairs)
	}
	g.depth = max(depth, 0)
	g.buf = slices.Grow(g.buf[:0], total)[:total]
	most, at := 0, 0
	for b := range g.ends {
		g.ends[b] = at // the bucket's start, until the scatter has filled it
		at += bytesIn[b]
		most = max(most, pairsIn[b])
	}
	for _, data := range streams {
		for off := 0; off < len(data); {
			klen := int(binary.BigEndian.Uint32(data[off:]))
			next := off + 8 + klen + int(binary.BigEndian.Uint32(data[off+4+klen:]))
			b := bucketOf(data[off+4:off+4+klen], g.depth)
			g.ends[b] += copy(g.buf[g.ends[b]:], data[off:next])
			off = next
		}
	}
	if cap(g.recs) < 2*most {
		g.recs = make([]pairRec, 2*most)
	}
	g.keys = strings.Builder{}
	g.keys.Grow(keyBytes)
	return nil
}

// commonPrefix is the length of the longest prefix a and b share.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// bucketOf is the scatter bucket of key, which is at least depth long.
func bucketOf(key []byte, depth int) int {
	if len(key) == depth {
		return 0
	}
	return 1 + int(key[depth])
}

// reset readies g for its next partition. It lets go of the keys handed
// out, which stay with whoever kept them; in race builds it overwrites
// the scatter buffer (poisonArena), so a reducer that kept a value past
// its call reads poison from the end of its task on.
func (g *streamOrder) reset() {
	poisonArena(g.buf)
	g.buf = g.buf[:0]
	g.keys = strings.Builder{}
}

// footprint is the bytes g's arrays hold: a record is 16 bytes, a value's
// slice header 24.
func (g *streamOrder) footprint() int {
	return cap(g.buf) + 16*cap(g.recs) + 24*cap(g.values)
}

// smallRun is the longest run sorted by insertion: a radix pass counts
// 256 buckets whatever it sorts, which a few records do not repay.
const smallRun = 16

// radixSort puts recs in order of their digits' high bytes and keeps the
// order of records that tie on them; it returns how many low bits of the
// digit it left unsorted. tmp is scratch of the same length. Only bytes
// that vary among recs cost a pass, and only as many of them, from the
// highest down, as tell len(recs) keys apart at two bits a byte, which
// the bytes of real keys carry: recs that tie on them are few, and the
// walk sorts each such run by the rest of its digits. A run of smallRun
// or fewer is sorted by insertion on the whole digit.
func radixSort(recs, tmp []pairRec) (low int) {
	if len(recs) <= smallRun {
		for i := 1; i < len(recs); i++ {
			r := recs[i]
			j := i
			for ; j > 0 && recs[j-1].digit > r.digit; j-- {
				recs[j] = recs[j-1]
			}
			recs[j] = r
		}
		return 0
	}
	var varies uint64
	for _, r := range recs[1:] {
		varies |= r.digit ^ recs[0].digit
	}
	for shift, keep := 56, bits.Len(uint(len(recs)))/2; shift >= 0 && keep > 0; shift -= 8 {
		if varies>>shift&0xff != 0 {
			low, keep = shift, keep-1
		}
	}
	from, to := recs, tmp
	for shift := low; shift < 64; shift += 8 {
		if varies>>shift&0xff == 0 {
			continue
		}
		var next [256]uint32
		for _, r := range from {
			next[byte(r.digit>>shift)]++
		}
		at := uint32(0)
		for b, n := range next {
			next[b] = at
			at += n
		}
		for _, r := range from {
			b := byte(r.digit >> shift)
			to[next[b]] = r
			next[b]++
		}
		from, to = to, from
	}
	if &from[0] != &recs[0] {
		copy(recs, from)
	}
	return low
}

// each calls fn once per distinct key, in key order, with the key's
// values in arrival order. values and the bytes behind it are fn's until
// it returns (the ReduceFunc contract); key is fn's to keep. It orders one
// bucket at a time: one record per pair, the first digit taken at the
// bucket's base, a stable radix sort and a walk over the runs. each
// consumes the order: call it once.
func (g *streamOrder) each(fn func(key string, values [][]byte) error) error {
	start := 0
	for b, end := range g.ends {
		if end == start {
			continue
		}
		g.base = g.depth + min(b, 1)
		n := 0
		for off := start; off < end; n++ {
			klen := int(binary.BigEndian.Uint32(g.buf[off:]))
			g.recs[n] = pairRec{digit: keyDigit(g.buf[off+4+g.base:off+4+klen], 0), off: off}
			off += 8 + klen + int(binary.BigEndian.Uint32(g.buf[off+4+klen:]))
		}
		if err := g.walk(g.recs[:n:n], g.recs[n:2*n], 0, fn); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// walk orders recs, whose keys have equal digits before level, by the
// digit at level, and calls fn for their groups. A run of equal digits is
// nearly always one key, and the stable sort has left its pairs in arrival
// order; a run that ties only on the digits' high bytes radixSort looked
// at is ordered by the whole digit, and a run that is not one key by the
// next digit, in the same way.
func (g *streamOrder) walk(recs, tmp []pairRec, level int, fn func(key string, values [][]byte) error) error {
	low := radixSort(recs, tmp)
	for len(recs) > 0 {
		n := 1
		for n < len(recs) && recs[n].digit>>low == recs[0].digit>>low {
			n++
		}
		run := recs[:n]
		var err error
		switch {
		case g.oneKey(run):
			err = g.reduce(run, fn)
		case low > 0 && slices.ContainsFunc(run, func(r pairRec) bool { return r.digit != run[0].digit }):
			// Ties on the high bytes only: order the run at this level.
			err = g.walk(run, tmp[:n], level, fn)
		default:
			// Order the run by the next digit its keys differ in. Going
			// past the digits they share here, not one call each, lets the
			// calls nest as deep as the keys are many, not as they are long.
			next := level
			for differ := false; !differ; {
				next++
				for i, r := range run {
					run[i].digit = keyDigit(g.rest(r), next)
					differ = differ || run[i].digit != run[0].digit
				}
			}
			err = g.walk(run, tmp[:n], next, fn)
		}
		if err != nil {
			return err
		}
		recs, tmp = recs[n:], tmp[n:]
	}
	return nil
}

// pair is r's key and value, where they lie in the scatter buffer.
func (g *streamOrder) pair(r pairRec) (key, value []byte) {
	data := g.buf[r.off:]
	klen := int(binary.BigEndian.Uint32(data))
	vlen := int(binary.BigEndian.Uint32(data[4+klen:]))
	end := 8 + klen + vlen
	return data[4 : 4+klen : 4+klen], data[8+klen : end : end]
}

// rest is r's key from the bucket's base on, without a look at the
// value's length: the walk asks for keys far more often than for pairs.
func (g *streamOrder) rest(r pairRec) []byte {
	data := g.buf[r.off:]
	klen := int(binary.BigEndian.Uint32(data))
	return data[4+g.base : 4+klen]
}

// oneKey reports whether every pair of run has the same key.
func (g *streamOrder) oneKey(run []pairRec) bool {
	if len(run) == 1 {
		return true
	}
	first := g.rest(run[0])
	for _, r := range run[1:] {
		if !bytes.Equal(g.rest(r), first) {
			return false
		}
	}
	return true
}

// reduce hands run, the pairs of one key in arrival order, to fn.
func (g *streamOrder) reduce(run []pairRec, fn func(key string, values [][]byte) error) error {
	if cap(g.values) < len(run) {
		// At least doubled: runs that come ever longer do not each allocate.
		g.values = make([][]byte, 0, max(len(run), 2*cap(g.values)))
	}
	values := g.values[:0]
	key, value := g.pair(run[0])
	values = append(values, value)
	for _, r := range run[1:] {
		_, value = g.pair(r)
		values = append(values, value)
	}
	at := g.keys.Len()
	g.keys.Write(key)
	err := fn(g.keys.String()[at:], values)
	poisonValues(values)
	return err
}

// GroupByKey collates the values of equal keys and returns the groups in
// key order. Within a group the values keep the pairs' relative order:
// the reducer contract. It is groupStreams over kvs encoded as one
// stream: kvs is not modified, the groups' values are copies (a nil value
// comes back empty), and it panics where groupStreams fails, on more than
// 2^31-1 pairs.
func GroupByKey(kvs []KV) []Group {
	if len(kvs) == 0 {
		return nil
	}
	g, err := groupStreams([][]byte{EncodeKVs(kvs)})
	if err != nil {
		panic(fmt.Sprintf("mapreduce: GroupByKey: %v", err))
	}
	var out []Group
	slab := make([][]byte, 0, len(kvs))
	_ = g.each(func(key string, values [][]byte) error { // fn never fails
		at := len(slab)
		slab = append(slab, values...)
		out = append(out, Group{Key: key, Values: slab[at:len(slab):len(slab)]})
		return nil
	})
	return out
}
