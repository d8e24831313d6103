package mapreduce

import (
	"fmt"

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
// exactly when the application registered a combiner.
func newMapEmitter(table *hashing.RangeTable, req RunMapReq, combine ReduceFunc, handoff func(part, seq int, buf *[]byte)) mapEmitter {
	route := newSpillRoute(table, req, handoff)
	if combine == nil {
		return newAppendEmitter(route)
	}
	return newCombineEmitter(route, combine, req.Params)
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

// partition places key on the ring exactly as the paper's shuffle does
// (SHA-1 of the intermediate key, looked up in the job's reduce table),
// or returns -1 when the request filters that partition out.
func (r *spillRoute) partition(key string) int {
	part := r.table.LookupIndex(hashing.KeyOfString(key))
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
	part := e.partition(key)
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
// spill threshold the combiner runs once per key, in key order, over the
// key's values in emit order, its output encoded directly into the pooled
// buffer the sender ships. A spill therefore carries exactly the bytes
// the combiner would have produced from the appendEmitter's buffer.
//
// The grouping kernel is keyed by emitted key for the whole task, so a
// key's partition (the SHA-1 ring lookup) is computed once per distinct
// key instead of once per pair. The table is task-local garbage, not
// pooled: an idle pooled table is live heap, and on the repository
// benchmark that cost resident memory without buying throughput.
type combineEmitter struct {
	spillRoute
	combine ReduceFunc
	params  Params
	g       *grouper
	// part[id] is the group's partition, -1 when filtered out.
	part  []int32
	parts []partSpill
	// slab is layout scratch, reused by every flush.
	slab [][]byte
	// err is the first combiner failure; once set the task is doomed and
	// every later emit returns it without buffering.
	err error
}

func newCombineEmitter(route spillRoute, combine ReduceFunc, params Params) *combineEmitter {
	return &combineEmitter{
		spillRoute: route,
		combine:    combine,
		params:     params,
		g:          newGrouper(),
		parts:      make([]partSpill, route.table.Len()),
	}
}

func (e *combineEmitter) emit(key string, value []byte) error {
	if e.err != nil {
		return e.err
	}
	id, fresh := e.g.id(key)
	if fresh {
		e.part = append(e.part, int32(e.partition(key)))
	}
	part := int(e.part[id])
	if part < 0 {
		return nil
	}
	ps := &e.parts[part]
	if e.g.at[id] == 0 {
		ps.active = append(ps.active, id)
	}
	e.g.at[id]++
	ps.pairs = append(ps.pairs, pairRef{id: id, vlen: uint32(len(value))})
	ps.arena = append(ps.arena, value...)
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
	n := e.g.layout(ps.active)
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
