package mapreduce

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"eclipsemr/internal/hashing"
)

// Group is one reduce input: a key and all of its values.
type Group struct {
	Key    string
	Values [][]byte
}

// grouper is the grouping kernel behind GroupByKey, the reduce path and
// the emit-side combiner. It maps every pair, in arrival order, to a dense
// group id, then orders only the distinct keys; the values of all groups
// share one slab laid out group by group, each group's values in arrival
// order (the reducer contract). Three steps:
//
//  1. id(key, h) per pair, with at[id]++ counting the group's pairs;
//  2. layout(ids) turns every count into the group's first slot in the
//     slab, in the order of ids: as given (the combiner, whose spills
//     nobody reads in order) or sorted by key first (sortByKey, what a
//     reducer is promised);
//  3. the caller places the pairs in arrival order with slab[at[id]++],
//     after which at[id] is the group's end and each() walks the groups.
//
// The kernel does not hash: h is the key's hashing.ShuffleKey, which the
// emit side has computed anyway to place the pair on the ring, so a pair
// is hashed once. The table uses the low bits for the slot and keeps the
// high 32 to skip key compares; all keys of one reduce partition share a
// few leading bits (their ring range) and nothing else.
//
// The index is an open-addressing table of group ids (4 bytes a slot)
// beside the dense per-group arrays, a fraction of a map[string]int32's
// footprint. A grouper is task-local garbage, never pooled: an idle
// pooled table is live heap. Group ids and slab offsets are int32, so one
// grouper takes at most 2^31-1 pairs.
type grouper struct {
	// slots holds id+1 at the key's probe position, 0 when empty; its
	// length is a power of two kept at least twice the group count.
	slots  []int32
	hashes []uint32 // per group: the high hash bits, to skip most key compares
	keys   []string
	at     []int32
	expect int       // see newGrouper
	recs   []sortRec // sortByKey scratch
}

// sortRec is what sortByKey sorts: a group and the first 8 bytes of its key,
// big-endian and zero-padded, so that prefix order agrees with byte-wise
// key order wherever the prefixes differ.
type sortRec struct {
	prefix uint64
	id     int32
}

// newGrouper returns a kernel that expects about groups distinct keys
// (0: no idea). It starts with room for firstGroups whatever it expects;
// the first time those fill it goes straight to room for groups.
func newGrouper(groups int) *grouper {
	return &grouper{
		slots:  make([]int32, 2*firstGroups),
		hashes: make([]uint32, 0, firstGroups),
		keys:   make([]string, 0, firstGroups),
		at:     make([]int32, 0, firstGroups),
		expect: groups,
	}
}

const firstGroups = 32

// id returns the group of key, whose hashing.ShuffleKey is h, creating it
// on first sight.
func (g *grouper) id(key string, h hashing.Key) (id int32, fresh bool) {
	id, slot := find(g, uint64(h), key)
	if id >= 0 {
		return id, false
	}
	return g.insert(slot, uint64(h), key), true
}

// idBytes is id for a key still sitting in an encoded stream: the lookup
// converts nothing, only a first sighting allocates the key.
func (g *grouper) idBytes(key []byte, h hashing.Key) int32 {
	id, slot := find(g, uint64(h), key)
	if id >= 0 {
		return id
	}
	return g.insert(slot, uint64(h), string(key))
}

// find probes for key, whose hash is h: its group id, or -1 and the empty
// slot the key belongs in.
func find[K string | []byte](g *grouper, h uint64, key K) (id int32, slot int) {
	mask := len(g.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := g.slots[i]
		if s == 0 {
			return -1, i
		}
		if g.hashes[s-1] == uint32(h>>32) && g.keys[s-1] == string(key) {
			return s - 1, i
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

// grow doubles the table, or makes it and the per-group arrays large enough
// for the expected groups if that is more. Slot positions need the low
// hash bits, which are not kept, so every key is hashed again: log2(groups)
// times a key at most, against once per pair for everything else.
func (g *grouper) grow() {
	slots := 2 * len(g.slots)
	for slots < 2*g.expect {
		slots *= 2
	}
	if n := g.expect - len(g.keys); n > 0 {
		g.keys, g.hashes, g.at = slices.Grow(g.keys, n), slices.Grow(g.hashes, n), slices.Grow(g.at, n)
	}
	g.slots = make([]int32, slots)
	mask := len(g.slots) - 1
	for id, key := range g.keys {
		i := int(hashing.ShuffleKey(key)) & mask
		for g.slots[i] != 0 {
			i = (i + 1) & mask
		}
		g.slots[i] = int32(id) + 1
	}
}

// all lists every group id, in first-appearance order.
func (g *grouper) all() []int32 {
	ids := make([]int32, len(g.keys))
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// sortByKey puts ids in byte-wise key order. Nearly every comparison is
// settled by the records' inline prefixes without touching key memory,
// which keeps ordering many distinct keys cheap.
func (g *grouper) sortByKey(ids []int32) {
	if cap(g.recs) < len(ids) {
		g.recs = make([]sortRec, 0, len(ids))
	}
	g.recs = g.recs[:0]
	for _, id := range ids {
		var prefix [8]byte
		copy(prefix[:], g.keys[id])
		g.recs = append(g.recs, sortRec{binary.BigEndian.Uint64(prefix[:]), id})
	}
	slices.SortFunc(g.recs, func(a, b sortRec) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		return strings.Compare(g.keys[a.id], g.keys[b.id])
	})
	for i, r := range g.recs {
		ids[i] = r.id
	}
}

// layout assigns the groups consecutive slab ranges in the order of ids,
// returning the slots used (the pairs counted).
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
// group's range of the filled slab, and zeroes the groups' counts so the
// same ids can collect another round.
func (g *grouper) each(ids []int32, slab [][]byte, fn func(key string, values [][]byte) error) error {
	start := int32(0)
	for _, id := range ids {
		end := g.at[id]
		g.at[id] = 0
		if err := fn(g.keys[id], slab[start:end:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// grouped is a whole input run through the kernel: every group, in key
// order, over one slab.
type grouped struct {
	g     *grouper
	order []int32
	slab  [][]byte
}

// each calls fn once per distinct key, in key order.
func (gd grouped) each(fn func(key string, values [][]byte) error) error {
	return gd.g.each(gd.order, gd.slab, fn)
}

// GroupByKey collates the values of equal keys and returns the groups in
// key order. Within a group the values keep the pairs' relative order:
// the reducer contract. kvs is not modified; the groups share its value
// slices.
func GroupByKey(kvs []KV) []Group {
	if len(kvs) == 0 {
		return nil
	}
	g := newGrouper(0)
	ids := make([]int32, len(kvs))
	for i, kv := range kvs {
		id, _ := g.id(kv.Key, hashing.ShuffleKey(kv.Key))
		g.at[id]++
		ids[i] = id
	}
	gd := grouped{g: g, order: g.all()}
	g.sortByKey(gd.order)
	gd.slab = make([][]byte, g.layout(gd.order))
	for i, kv := range kvs {
		id := ids[i]
		gd.slab[g.at[id]] = kv.Value
		g.at[id]++
	}
	out := make([]Group, 0, len(gd.order))
	_ = gd.each(func(key string, values [][]byte) error { // fn never fails
		out = append(out, Group{Key: key, Values: values})
		return nil
	})
	return out
}

// groupStreams is GroupByKey over the concatenation of encoded streams,
// without concatenating them or materializing the pairs. Values alias the
// streams, so the result is valid only while they are; keys are copied
// out once per distinct key.
func groupStreams(streams [][]byte) (grouped, error) {
	pairs := 0
	for _, data := range streams {
		for off := 0; off < len(data); pairs++ {
			_, _, next, err := nextKV(data, off)
			if err != nil {
				return grouped{}, err
			}
			off = next
		}
	}
	if pairs > math.MaxInt32 {
		return grouped{}, fmt.Errorf("mapreduce: %d pairs to group, the kernel takes at most %d", pairs, math.MaxInt32)
	}
	g := newGrouper(0)
	ids := make([]int32, 0, pairs)
	for _, data := range streams {
		for off := 0; off < len(data); {
			key, _, next, _ := nextKV(data, off) // cannot fail: the counting pass validated the stream
			id := g.idBytes(key, hashing.ShuffleKey(key))
			g.at[id]++
			ids = append(ids, id)
			off = next
		}
	}
	gd := grouped{g: g, order: g.all()}
	g.sortByKey(gd.order)
	gd.slab = make([][]byte, g.layout(gd.order))
	i := 0
	for _, data := range streams {
		for off := 0; off < len(data); i++ {
			_, value, next, _ := nextKV(data, off)
			id := ids[i]
			gd.slab[g.at[id]] = value
			g.at[id]++
			off = next
		}
	}
	return gd, nil
}
