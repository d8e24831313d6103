package mapreduce

import (
	"fmt"
	"math"
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
// exactly when the application registered a combiner, working in state
// (a fresh one when nil), which is the task's until flushAll and release
// have returned. The appending emitter ignores state.
func newMapEmitter(table *hashing.RangeTable, req RunMapReq, combine ReduceFunc, state *combineState, handoff func(part, seq int, buf *[]byte)) mapEmitter {
	route := newSpillRoute(table, req, handoff)
	if combine == nil {
		return newAppendEmitter(route)
	}
	if state == nil {
		state = new(combineState)
	}
	return newCombineEmitter(route, combine, req.Params, state)
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
// and where its value ends in the partition's arena. The values sit back to
// back in emit order, so a value starts where the pair before it ends.
type pairRef struct {
	id  int32
	end uint32
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

// value is the value of pairs[i].
func (ps *partSpill) value(i uint32) []byte {
	start := uint32(0)
	if i > 0 {
		start = ps.pairs[i-1].end
	}
	end := ps.pairs[i].end
	return ps.arena[start:end:end]
}

// maxArenaLen is the most value bytes a partition buffers: pairRef.end is
// 32 bits. A variable so that a test can reach it without 4 GiB of values.
var maxArenaLen uint64 = math.MaxUint32

// combineState is everything a combining emitter keeps between pairs: the
// table, each group's partition, the partitions' buffered pairs and the
// scratch a flush lays them out in. A Worker owns one and lends it to its
// map tasks one at a time (Worker.borrowCombineState); every array grows
// by append and stays grown, so a task on a borrowed state allocates for
// none of them once an earlier task has needed as much. The per-pair
// arrays hold no pointers: the collector does not scan them and a pair
// costs no write barrier.
type combineState struct {
	g grouper
	// part[id] is the group's partition, -1 when filtered out.
	part  []int32
	parts []partSpill
	// order is a flush's pairs, as indexes into its partition's pairs,
	// grouped by group id; values is one group's values as the combiner
	// is handed them.
	order  []uint32
	values [][]byte
	// err is the first combiner failure; once set the task is doomed and
	// every later emit returns it without buffering.
	err error
}

// reset readies s for another task: every array is emptied and keeps its
// capacity, no key of the finished task stays referenced (a key may hold
// the task's input alive), and in race builds the partitions' value bytes
// are overwritten, so a combiner that kept a value reads poison in the
// next task instead of another task's bytes.
func (s *combineState) reset() {
	s.g.reset()
	s.part = s.part[:0]
	parts := s.parts[:cap(s.parts)]
	for i := range parts {
		ps := &parts[i]
		poisonArena(ps.arena)
		ps.pairs, ps.arena, ps.active, ps.raw = ps.pairs[:0], ps.arena[:0], ps.active[:0], 0
	}
	s.parts = s.parts[:0]
	s.order, s.values = s.order[:0], s.values[:0]
	s.err = nil
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
// the lookup itself runs once per distinct key (part). The table and the
// partitions' pairs live in a combineState the task has borrowed from its
// worker, not in the emitter.
type combineEmitter struct {
	spillRoute
	*combineState
	combine ReduceFunc
	params  Params
}

func newCombineEmitter(route spillRoute, combine ReduceFunc, params Params, state *combineState) *combineEmitter {
	n := route.table.Len()
	state.parts = slices.Grow(state.parts[:0], n)[:n]
	return &combineEmitter{spillRoute: route, combineState: state, combine: combine, params: params}
}

func (e *combineEmitter) emit(key string, value []byte) error {
	if e.err != nil {
		return e.err
	}
	h := hashing.ShuffleKey(key)
	id, fresh := e.g.id(key, h)
	if fresh {
		e.part = append(e.part, int32(e.partition(h)))
	}
	part := int(e.part[id])
	if part < 0 {
		return nil
	}
	ps := &e.parts[part]
	if uint64(len(ps.arena))+uint64(len(value)) > maxArenaLen {
		if err := e.flush(part); err != nil {
			return err
		}
	}
	if e.g.at[id] == 0 {
		ps.active = append(ps.active, id)
	}
	e.g.at[id]++
	ps.arena = append(ps.arena, value...)
	ps.pairs = append(ps.pairs, pairRef{id: id, end: uint32(len(ps.arena))})
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
	e.order = slices.Grow(e.order[:0], n)[:n]
	for i, p := range ps.pairs {
		e.order[e.g.at[p.id]] = uint32(i)
		e.g.at[p.id]++
	}
	out := getSpillBuf()
	collect := func(key string, value []byte) error {
		*out = AppendKV(*out, KV{Key: key, Value: value})
		return nil
	}
	err := e.g.each(ps.active, e.order, func(key string, pairs []uint32) error {
		values := e.values[:0]
		for _, i := range pairs {
			values = append(values, ps.value(i))
		}
		e.values = values
		err := e.combine(e.params, key, values, collect)
		poisonValues(values)
		if err != nil {
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
// the pool and shipped (or put back) within one flush, and the state goes
// back to the worker that lent it.
func (e *combineEmitter) release() {}
