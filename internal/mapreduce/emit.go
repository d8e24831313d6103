package mapreduce

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"eclipsemr/internal/hashing"
)

// mapEmitter is the emit side of one map task: it receives the pairs
// app.Map produces, routes them to reduce partitions and hands every
// spill that fills up to the async sender while the map is still running
// (proactive shuffle). Applications without a combiner append encoded
// pairs (appendEmitter); applications with one fold each pair into its
// key's accumulator (combineEmitter).
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
func newMapEmitter(table *hashing.RangeTable, req RunMapReq, combine *Combiner, state *combineState, handoff func(part, seq int, buf *[]byte)) mapEmitter {
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

// groupAcc is what a combining emitter keeps per group: the partition the
// key hashes to, -1 when filtered out, and, while the partition's current
// spill holds the key, where its accumulator lies in the partition's
// arena.
type groupAcc struct {
	part       int32
	held       bool
	start, end uint32
}

// partSpill is the keys one partition has folded since its last spill.
type partSpill struct {
	// ids lists the groups whose accumulators the arena holds, in the
	// order each was first emitted since the last spill.
	ids   []int32
	arena []byte
	// raw is the encoded size the folded pairs would have had in an
	// appendEmitter buffer; spill boundaries follow it, not the
	// accumulators' footprint, so they fall where they do without a
	// combiner.
	raw int
}

// maxArenaLen is the most accumulator bytes a partition holds: offsets
// into the arena are 32 bits. A variable so that a test can reach it
// without 4 GiB of accumulators.
var maxArenaLen uint64 = math.MaxUint32

// combineState is everything a combining emitter keeps between pairs: the
// table, each group's partition and accumulator, and the partitions'
// arenas. A Worker owns one and lends it to its map tasks one at a time
// (Worker.borrowCombineState); every array grows by append and stays
// grown, so a task on a borrowed state allocates for none of them once an
// earlier task has needed as much. The per-group arrays and the arenas
// hold no pointers: the collector does not scan them and a fold costs no
// write barrier.
type combineState struct {
	g grouper
	// groups[id] is group id's partition and accumulator.
	groups []groupAcc
	parts  []partSpill
	// err is the first combiner failure; once set the task is doomed and
	// every later emit returns it without folding.
	err error
}

// reset readies s for another task: every array is emptied and keeps its
// capacity, no key of the finished task stays referenced (a key may hold
// the task's input alive), and in race builds the partitions' arenas are
// overwritten, so a combiner that kept an accumulator reads poison in the
// next task instead of another task's bytes.
func (s *combineState) reset() {
	s.g.reset()
	s.groups = s.groups[:0]
	parts := s.parts[:cap(s.parts)]
	for i := range parts {
		ps := &parts[i]
		poisonArena(ps.arena)
		ps.ids, ps.arena, ps.raw = ps.ids[:0], ps.arena[:0], 0
	}
	s.parts = s.parts[:0]
	s.err = nil
}

// combineEmitter is the fused emit-side combiner (in-mapper combining):
// every pair is folded into its key's accumulator as it is emitted, and
// when a partition's pairs reach the spill threshold each of its keys'
// Value is encoded directly into the pooled buffer the sender ships. A
// spill lists its keys in the order each was first emitted since the
// partition's last spill: no reader wants them sorted (the reduce side
// orders all of a partition's pairs itself, groupStreams), so the emit side
// does not sort.
//
// One hashing.ShuffleKey per pair serves both the table (grouper) and the
// ring lookup. The table is keyed by emitted key for the whole task, so
// the lookup itself runs once per distinct key (groupAcc.part). The table
// and the accumulators live in a combineState the task has borrowed from
// its worker, not in the emitter.
type combineEmitter struct {
	spillRoute
	*combineState
	combine *Combiner
	params  Params
}

func newCombineEmitter(route spillRoute, combine *Combiner, params Params, state *combineState) *combineEmitter {
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
		e.groups = append(e.groups, groupAcc{part: int32(e.partition(h))})
	}
	ga := &e.groups[id]
	if ga.part < 0 {
		return nil
	}
	ps := &e.parts[ga.part]
	var err error
	if ga.held {
		err = e.combine.Add(e.params, key, ps.arena[ga.start:ga.end:ga.end], value)
	} else {
		err = e.start(ps, id, key, value)
	}
	if err != nil {
		e.err = fmt.Errorf("mapreduce: combine key %q: %w", key, err)
		return e.err
	}
	ps.raw += 8 + len(key) + len(value)
	if ps.raw >= e.threshold {
		e.flush(int(ga.part))
	}
	return nil
}

// start appends the accumulator of a key the partition's spill does not
// hold yet. One that would carry the arena past what a 32-bit offset
// addresses spills the partition's other keys first, below the threshold,
// and moves to the front of the emptied arena.
func (e *combineEmitter) start(ps *partSpill, id int32, key string, value []byte) error {
	ga := &e.groups[id]
	begin := len(ps.arena)
	arena, err := e.combine.Start(e.params, key, ps.arena, value)
	if err != nil {
		return err
	}
	if uint64(len(arena)) > maxArenaLen && begin > 0 {
		ps.arena = arena[:begin:begin] // the flush poisons no byte of the new accumulator
		e.flush(int(ga.part))
		arena, begin = arena[:copy(arena, arena[begin:])], 0
	}
	if uint64(len(arena)) > maxArenaLen {
		return fmt.Errorf("an accumulator of %d bytes", len(arena))
	}
	ps.arena = arena
	ps.ids = append(ps.ids, id)
	ga.held, ga.start, ga.end = true, uint32(begin), uint32(len(arena))
	return nil
}

// flush encodes one partition's accumulators into a spill and ships it.
// The groups stay in the table (their partition is remembered for the
// rest of the task); only their accumulators are dropped, and in race
// builds overwritten.
func (e *combineEmitter) flush(part int) {
	ps := &e.parts[part]
	if len(ps.ids) == 0 {
		return
	}
	out := getSpillBuf()
	buf := *out
	for _, id := range ps.ids {
		ga := &e.groups[id]
		buf = e.appendPair(buf, e.g.keys[id], ps.arena[ga.start:ga.end:ga.end])
		ga.held = false
	}
	*out = buf
	poisonArena(ps.arena)
	ps.ids, ps.arena, ps.raw = ps.ids[:0], ps.arena[:0], 0
	e.ship(part, out)
}

// appendPair encodes key and the Value of acc to dst as one pair
// (AppendKV's format), Value appending straight into the buffer.
func (e *combineEmitter) appendPair(dst []byte, key string, acc []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(key)))
	dst = append(dst, key...)
	at := len(dst)
	dst = e.combine.Value(e.params, key, append(dst, 0, 0, 0, 0), acc)
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

func (e *combineEmitter) flushAll() error {
	if e.err != nil {
		return e.err
	}
	for part := range e.parts {
		e.flush(part)
	}
	return nil
}

// release has nothing to return: a combined spill's buffer is taken from
// the pool and shipped within one flush, and the state goes back to the
// worker that lent it.
func (e *combineEmitter) release() {}
