package mapreduce

import (
	"fmt"
	"slices"

	"eclipsemr/internal/hashing"
)

// mapEmitter is the emit side of one map task: it receives the pairs
// app.Map produces, routes them to reduce partitions and hands every
// spill that fills up to the async sender while the map is still running
// (proactive shuffle). Applications without a combiner append encoded
// pairs (appendEmitter); applications with one aggregate in a table first
// (combineEmitter).
type mapEmitter interface {
	// emit is the Emit handed to app.Map.
	emit(key string, value []byte) error
	// flushAll ships whatever is still buffered, in partition order.
	flushAll() error
	// release returns every buffer the emitter still holds to its pool.
	release()
}

// newMapEmitter picks the emitter for one map task: the combining one
// exactly when the application registered a combiner. inputLen is the
// length of the block the task maps (0 when it maps a cached split), from
// which the combining emitter sizes its arrays.
func newMapEmitter(table *hashing.RangeTable, req RunMapReq, combine ReduceFunc, inputLen int, handoff func(part, seq int, buf *[]byte)) mapEmitter {
	route := newSpillRoute(table, req, handoff)
	if combine == nil {
		return newAppendEmitter(route)
	}
	return newCombineEmitter(route, combine, req.Params, inputLen)
}

// spillRoute is what both emitters share: how a key picks its partition,
// when a partition's buffered pairs become a spill, and how the spill
// leaves the task.
type spillRoute struct {
	table *hashing.RangeTable
	// wanted, when non-nil, marks the partitions OnlyPartitions lists;
	// pairs hashing elsewhere are dropped.
	wanted []bool
	// threshold is compared against the raw encoded size of the buffered
	// pairs, 8+len(key)+len(value) each, combiner or not.
	threshold int
	seqs      []int
	// handoff passes a spill's pooled buffer (and its ownership) on.
	handoff func(part, seq int, buf *[]byte)
}

func newSpillRoute(table *hashing.RangeTable, req RunMapReq, handoff func(part, seq int, buf *[]byte)) spillRoute {
	r := spillRoute{
		table:     table,
		threshold: req.SpillThreshold,
		seqs:      make([]int, table.Len()),
		handoff:   handoff,
	}
	if r.threshold <= 0 {
		r.threshold = DefaultSpillThreshold
	}
	if len(req.OnlyPartitions) > 0 {
		r.wanted = make([]bool, table.Len())
		for _, p := range req.OnlyPartitions {
			if p >= 0 && p < len(r.wanted) {
				r.wanted[p] = true
			}
		}
	}
	return r
}

// partition places an intermediate key on the ring as the paper's shuffle
// does: its ring key h (hashing.ShuffleKey; see partitionerID) looked up in
// the job's reduce table. It returns -1 when the request filters that
// partition out.
func (r *spillRoute) partition(h hashing.Key) int {
	part := r.table.LookupIndex(h)
	if r.wanted != nil && !r.wanted[part] {
		return -1
	}
	return part
}

// ship hands one finished spill to the sender. seq is assigned here, at
// hand-off in emit order, which is the per-partition sequence the dedup
// layer expects.
func (r *spillRoute) ship(part int, buf *[]byte) {
	r.handoff(part, r.seqs[part], buf)
	r.seqs[part]++
}

// appendEmitter appends encoded pairs straight into pooled per-partition
// buffers (no per-KV value clone); a full buffer is the spill.
type appendEmitter struct {
	spillRoute
	buffers []*[]byte
}

func newAppendEmitter(route spillRoute) *appendEmitter {
	return &appendEmitter{spillRoute: route, buffers: make([]*[]byte, route.table.Len())}
}

func (e *appendEmitter) emit(key string, value []byte) error {
	part := e.partition(hashing.ShuffleKey(key))
	if part < 0 {
		return nil
	}
	buf := e.buffers[part]
	if buf == nil {
		buf = getSpillBuf()
		e.buffers[part] = buf
	}
	*buf = AppendKV(*buf, KV{Key: key, Value: value})
	if len(*buf) >= e.threshold {
		e.flush(part)
	}
	return nil
}

func (e *appendEmitter) flush(part int) {
	buf := e.buffers[part]
	if buf == nil || len(*buf) == 0 {
		return
	}
	e.buffers[part] = nil
	e.ship(part, buf)
}

func (e *appendEmitter) flushAll() error {
	for part := range e.buffers {
		e.flush(part)
	}
	return nil
}

func (e *appendEmitter) release() {
	for i, b := range e.buffers {
		putSpillBuf(b)
		e.buffers[i] = nil
	}
}

// pairRef is one buffered pair of a partition's current spill: its group
// and its value's length. The value bytes sit back to back in the
// partition's arena in the same order, so offsets need no storing.
type pairRef struct {
	id   int32
	vlen uint32
}

// partSpill is the pairs one partition has buffered since its last spill.
type partSpill struct {
	pairs []pairRef
	arena []byte
	// active lists the groups with at least one pair in pairs.
	active []int32
	// raw is the encoded size the pairs would have had in an
	// appendEmitter buffer; spill boundaries follow it, not the table's
	// own footprint, so they fall where they do without a combiner.
	raw int
}

// combineEmitter is the fused emit-side combiner: pairs are hash-grouped
// as they are emitted, and when a partition's buffered pairs reach the
// spill threshold the combiner runs once per key over the key's values in
// emit order, its output encoded directly into the pooled buffer the
// sender ships. A spill lists its keys in the order each was first emitted
// since the partition's last spill: no reader wants them sorted (the
// reduce side orders all of a partition's pairs itself, groupStreams), so
// the emit side does not sort. A spill therefore carries the pairs the
// combiner would have produced from the appendEmitter's buffer, grouped.
//
// One hashing.ShuffleKey per pair serves both the table (grouper) and the
// ring lookup. The table is keyed by emitted key for the whole task, so
// the lookup itself runs once per distinct key (part). The table is
// task-local garbage, not pooled: an idle pooled table is live heap, and
// on the repository benchmark that cost resident memory without buying
// throughput. Its arrays and the partitions' are made at the task's first
// emit (a task that emits nothing allocates nothing) and sized in two
// steps, see sparsePairs, so that a block of text grows them a few times,
// not from empty.
type combineEmitter struct {
	spillRoute
	combine ReduceFunc
	params  Params
	// groups and pairs estimate, from the input's length, the distinct
	// keys of the task and the pairs a partition buffers.
	groups, pairs int
	g             *grouper
	// part[id] is the group's partition, -1 when filtered out.
	part  []int32
	parts []partSpill
	// slab is layout scratch, reused by every flush.
	slab [][]byte
	// err is the first combiner failure; once set the task is doomed and
	// every later emit returns it without buffering.
	err error
}

// What a block of text yields, for sizing: a pair (a short word and its
// separator) per 4 bytes, a distinct key per 24 (Zipf words, blocks of
// 64 KiB; larger blocks repeat more). A dense emitter that yields less
// wastes at most some three times its block in array space.
const (
	inputBytesPerPair  = 4
	inputBytesPerGroup = 24
)

// sparsePairs is how many pairs a partition's arrays start with room for.
// Most tasks that emit at all emit either a handful of pairs (a selective
// grep, k-means' one pair per centroid) or a pair per few bytes of input:
// the arrays stay this small until they fill, then go straight to the
// input's estimate.
const sparsePairs = 64

func newCombineEmitter(route spillRoute, combine ReduceFunc, params Params, inputLen int) *combineEmitter {
	return &combineEmitter{
		spillRoute: route,
		combine:    combine,
		params:     params,
		groups:     inputLen / inputBytesPerGroup,
		pairs:      inputLen / inputBytesPerPair / route.table.Len(),
		parts:      make([]partSpill, route.table.Len()),
	}
}

// room returns s with space for one more element: for sparse elements
// when s is empty, for dense once those are used up, and as it is after
// that (append's own doubling takes over).
func room[T any](s []T, sparse, dense int) []T {
	switch {
	case len(s) < cap(s):
		return s
	case cap(s) == 0:
		return make([]T, 0, sparse)
	case cap(s) < dense:
		return slices.Grow(s, dense-len(s))
	}
	return s
}

func (e *combineEmitter) emit(key string, value []byte) error {
	if e.err != nil {
		return e.err
	}
	if e.g == nil {
		e.g = newGrouper(e.groups)
	}
	h := hashing.ShuffleKey(key)
	id, fresh := e.g.id(key, h)
	if fresh {
		e.part = append(room(e.part, sparsePairs, e.groups), int32(e.partition(h)))
	}
	part := int(e.part[id])
	if part < 0 {
		return nil
	}
	ps := &e.parts[part]
	if e.g.at[id] == 0 {
		ps.active = append(room(ps.active, sparsePairs, e.groups/len(e.parts)), id)
	}
	e.g.at[id]++
	ps.pairs = append(room(ps.pairs, sparsePairs, e.pairs), pairRef{id: id, vlen: uint32(len(value))})
	ps.arena = append(room(ps.arena, 2*sparsePairs, 2*e.pairs), value...)
	ps.raw += 8 + len(key) + len(value)
	if ps.raw >= e.threshold {
		return e.flush(part)
	}
	return nil
}

// flush combines one partition's buffered pairs into a spill and ships
// it. The groups stay in the table (their partition is remembered for the
// rest of the task); only their pairs are dropped.
func (e *combineEmitter) flush(part int) error {
	if e.err != nil {
		return e.err
	}
	ps := &e.parts[part]
	if len(ps.pairs) == 0 {
		return nil
	}
	n := e.g.layout(ps.active) // first-emit order: see the type comment
	if cap(e.slab) < n {
		e.slab = make([][]byte, n)
	}
	slab := e.slab[:n]
	off := 0
	for _, p := range ps.pairs {
		end := off + int(p.vlen)
		slab[e.g.at[p.id]] = ps.arena[off:end:end]
		e.g.at[p.id]++
		off = end
	}
	out := getSpillBuf()
	collect := func(key string, value []byte) error {
		*out = AppendKV(*out, KV{Key: key, Value: value})
		return nil
	}
	err := e.g.each(ps.active, slab, func(key string, values [][]byte) error {
		if err := e.combine(e.params, key, values, collect); err != nil {
			return fmt.Errorf("mapreduce: combine key %q: %w", key, err)
		}
		return nil
	})
	ps.pairs, ps.arena, ps.active, ps.raw = ps.pairs[:0], ps.arena[:0], ps.active[:0], 0
	if err != nil {
		putSpillBuf(out)
		e.err = err
		return err
	}
	e.ship(part, out)
	return nil
}

func (e *combineEmitter) flushAll() error {
	for part := range e.parts {
		if err := e.flush(part); err != nil {
			return err
		}
	}
	return nil
}

// release has nothing to return: a combined spill's buffer is taken from
// the pool and shipped (or put back) within one flush.
func (e *combineEmitter) release() {}
