package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
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
// every pair, in emit order, to a dense group id; a spill's pairs are then
// laid out group by group in one order array of pair indexes, each group's
// pairs in emit order (what a ReduceFunc is promised). Three steps:
//
//  1. id(key, h) per pair, with at[id]++ counting the group's pairs;
//  2. layout(ids) turns every count into the group's first position in
//     the order, in the order of ids;
//  3. the caller places the pairs in emit order with order[at[id]++] = i,
//     after which at[id] is the group's end and each() walks the groups.
//
// The table does not hash: h is the key's hashing.ShuffleKey, which the
// emitter has computed anyway to place the pair on the ring, so a pair is
// hashed once. The low bits pick the slot and the high 32 are kept to skip
// key compares.
//
// The index is an open-addressing table of group ids (4 bytes a slot)
// beside the dense per-group arrays, a fraction of a map[string]int32's
// footprint. The zero grouper is an empty table; it lives in a worker's
// combineState and is reset, not rebuilt, between tasks. Group ids and
// order positions are int32, so one grouper takes at most 2^31-1 pairs.
// The reduce side uses no table: see groupStreams.
type grouper struct {
	// slots holds id+1 at the key's probe position, 0 when empty; its
	// length is a power of two kept at least twice the group count.
	slots  []int32
	hashes []uint32 // per group: the high hash bits, to skip most key compares
	keys   []string
	at     []int32
}

// firstSlots is the table's size before its first growth.
const firstSlots = 64

// reset empties the table and keeps its arrays. keys is cleared, not only
// truncated: a key of the last task may hold that task's input alive.
func (g *grouper) reset() {
	clear(g.slots)
	clear(g.keys)
	g.keys, g.hashes, g.at = g.keys[:0], g.hashes[:0], g.at[:0]
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
	g.at = append(g.at, 0)
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

// layout assigns the groups consecutive ranges of the order in the order
// of ids, returning the positions used (the pairs counted).
func (g *grouper) layout(ids []int32) int {
	off := int32(0)
	for _, id := range ids {
		n := g.at[id]
		g.at[id] = off
		off += n
	}
	return int(off)
}

// each calls fn once per group of ids, in the order layout saw, with the
// group's range of the filled order, and zeroes the groups' counts so the
// same ids can collect another round. A group it does not reach, fn having
// failed, keeps its count until reset.
func (g *grouper) each(ids []int32, order []uint32, fn func(key string, pairs []uint32) error) error {
	start := int32(0)
	for _, id := range ids {
		end := g.at[id]
		g.at[id] = 0
		if err := fn(g.keys[id], order[start:end:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
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

// poisonArena overwrites, in race builds, the whole of a combining
// emitter's value arena when its state is reset: a combiner that kept one
// of the values (not the slice, which poisonValues covers) reads poison
// in the next task.
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

// pairRec is one pair of a reduce partition as the ordering kernel sees
// it: where the pair sits, and the digit of its key being ordered on.
type pairRec struct {
	digit  uint64
	stream uint32
	off    uint32 // of the pair in streams[stream]
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
// only an equal key shares.
func keyDigit(key []byte, level int) uint64 {
	rest := key[level/2*8:]
	switch {
	case level%2 == 1:
		return uint64(min(len(rest), 8))
	case len(rest) >= 8:
		return binary.BigEndian.Uint64(rest)
	}
	var w uint64
	for _, b := range rest {
		w = w<<8 | uint64(b)
	}
	return w << (8 * (8 - len(rest)))
}

// The kernel's records hold a stream's index and an offset into it in 32
// bits each, and it counts pairs in an int32's range. Variables so that a
// test can reach the limits without 4 GiB of input.
var (
	maxStreamLen uint64 = math.MaxUint32
	maxPairs            = math.MaxInt32
)

// streamOrder is a reduce partition's pairs put in the order its reducer
// reads them: by key, byte-wise, and arrival order (stream by stream, then
// offset) among the pairs of one key.
type streamOrder struct {
	streams [][]byte
	// recs is one record per pair; tmp, as long, is where a radix pass
	// puts what it reads from the other.
	recs, tmp []pairRec
	// keys holds the copy of every key handed out so far; it is made
	// with room for all of them and so never moves.
	keys strings.Builder
	// values is what the current group's values are handed over in.
	values [][]byte
}

// groupStreams orders the concatenation of encoded streams for each,
// without concatenating them, hashing a key or comparing two whole keys to
// order them. It validates every stream before anything else happens, and
// fails if a stream is 4 GiB or longer or the pairs number more than
// 2^31-1. The streams must stay as they are until each has returned: keys
// and values are read, and the values handed out, where they lie.
//
// One record per pair (16 bytes) carries the first eight bytes of the
// key; a stable LSD radix sort puts the records in the order of those
// bytes, and each finishes the order run by run (walk). Nothing else is
// allocated but room for one copy of each distinct key and the scratch
// slice of a group's values.
func groupStreams(streams [][]byte) (*streamOrder, error) {
	pairs, keyBytes := 0, 0
	for _, data := range streams {
		if uint64(len(data)) > maxStreamLen {
			return nil, fmt.Errorf("mapreduce: a stream of %d bytes to group, the kernel takes at most %d", len(data), maxStreamLen)
		}
		for off := 0; off < len(data); pairs++ {
			key, _, next, err := nextKV(data, off)
			if err != nil {
				return nil, err
			}
			keyBytes += len(key)
			off = next
		}
	}
	if pairs > maxPairs {
		return nil, fmt.Errorf("mapreduce: %d pairs to group, the kernel takes at most %d", pairs, maxPairs)
	}
	both := make([]pairRec, 2*pairs)
	g := &streamOrder{streams: streams, recs: both[:pairs:pairs], tmp: both[pairs:]}
	g.keys.Grow(keyBytes)
	i := 0
	for s, data := range streams {
		for off := 0; off < len(data); i++ {
			r := pairRec{stream: uint32(s), off: uint32(off)}
			key, value := g.pair(r)
			r.digit = keyDigit(key, 0)
			g.recs[i] = r
			off += 8 + len(key) + len(value)
		}
	}
	radixSort(g.recs, g.tmp)
	return g, nil
}

// smallRun is the longest run sorted by insertion: a radix pass counts
// 256 buckets whatever it sorts, which a few records do not repay.
const smallRun = 16

// radixSort puts recs in ascending order of digit and keeps the order of
// records with equal digits. tmp is scratch of the same length. A byte of
// the digit that is the same in every record costs no pass: keys that are
// short, or drawn from a small alphabet, take fewer than eight.
func radixSort(recs, tmp []pairRec) {
	if len(recs) <= smallRun {
		for i := 1; i < len(recs); i++ {
			r := recs[i]
			j := i
			for ; j > 0 && recs[j-1].digit > r.digit; j-- {
				recs[j] = recs[j-1]
			}
			recs[j] = r
		}
		return
	}
	var varies uint64
	for _, r := range recs[1:] {
		varies |= r.digit ^ recs[0].digit
	}
	from, to := recs, tmp
	for shift := 0; shift < 64; shift += 8 {
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
}

// each calls fn once per distinct key, in key order, with the key's
// values in arrival order. values and the bytes behind it are fn's until
// it returns (the ReduceFunc contract); key is fn's to keep. each consumes
// the order: call it once.
func (g *streamOrder) each(fn func(key string, values [][]byte) error) error {
	return g.walk(g.recs, g.tmp, 0, fn)
}

// walk finishes the order of recs, whose keys have equal digits before
// level and which radixSort has ordered by the digit at level, and calls
// fn for their groups. A run of equal digits is nearly always one key, and
// the stable sort has left its pairs in arrival order; a run that is not
// one key is ordered by the next digit in the same way.
func (g *streamOrder) walk(recs, tmp []pairRec, level int, fn func(key string, values [][]byte) error) error {
	for len(recs) > 0 {
		n := 1
		for n < len(recs) && recs[n].digit == recs[0].digit {
			n++
		}
		run := recs[:n]
		if g.oneKey(run) {
			if err := g.reduce(run, fn); err != nil {
				return err
			}
		} else {
			// Order the run by the next digit its keys differ in. Going
			// past the digits they share here, not one call each, lets the
			// calls nest as deep as the keys are many, not as they are long.
			next := level
			for differ := false; !differ; {
				next++
				for i, r := range run {
					run[i].digit = keyDigit(g.key(r), next)
					differ = differ || run[i].digit != run[0].digit
				}
			}
			radixSort(run, tmp[:n])
			if err := g.walk(run, tmp[:n], next, fn); err != nil {
				return err
			}
		}
		recs, tmp = recs[n:], tmp[n:]
	}
	return nil
}

// pair is r's key and value, where they lie in their stream. It reads the
// lengths groupStreams has validated.
func (g *streamOrder) pair(r pairRec) (key, value []byte) {
	data := g.streams[r.stream][r.off:]
	klen := int(binary.BigEndian.Uint32(data))
	vlen := int(binary.BigEndian.Uint32(data[4+klen:]))
	end := 8 + klen + vlen
	return data[4 : 4+klen : 4+klen], data[8+klen : end : end]
}

// key is pair's key without a look at the value's length: the walk asks
// for keys far more often than for pairs.
func (g *streamOrder) key(r pairRec) []byte {
	data := g.streams[r.stream][r.off:]
	klen := int(binary.BigEndian.Uint32(data))
	return data[4 : 4+klen : 4+klen]
}

// oneKey reports whether every pair of run has the same key.
func (g *streamOrder) oneKey(run []pairRec) bool {
	if len(run) == 1 {
		return true
	}
	first := g.key(run[0])
	for _, r := range run[1:] {
		if !bytes.Equal(g.key(r), first) {
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
// comes back empty), and it panics where groupStreams fails, on 4 GiB of
// encoded pairs or more than 2^31-1 of them.
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
