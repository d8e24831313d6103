package mapreduce

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

// The transport.Wire codecs of the mr.* messages and of the two files a
// later driver reads back, the job journal and the reuse marker: fields in
// declaration order, in the primitive encodings transport/wire.go lists,
// maps in ascending key order. A ParseWire reads every field
// unconditionally (the reader's error is sticky) and checks Done once;
// []byte fields decode as sub-slices of the body.

func appendNodeIDs(dst []byte, ids []hashing.NodeID) []byte {
	dst = transport.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = transport.AppendString(dst, string(id))
	}
	return dst
}

func readNodeIDs(r *transport.WireReader) []hashing.NodeID {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ids := make([]hashing.NodeID, n)
	for i := range ids {
		ids[i] = hashing.NodeID(r.Str())
	}
	return ids
}

func appendInts(dst []byte, xs []int) []byte {
	dst = transport.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = transport.AppendInt(dst, int64(x))
	}
	return dst
}

func readInts(r *transport.WireReader) []int {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.Int()
	}
	return xs
}

func appendInt64s(dst []byte, xs []int64) []byte {
	dst = transport.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = transport.AppendInt(dst, x)
	}
	return dst
}

func readInt64s(r *transport.WireReader) []int64 {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = r.Int64()
	}
	return xs
}

func appendKeys(dst []byte, ks []hashing.Key) []byte {
	dst = transport.AppendUvarint(dst, uint64(len(ks)))
	for _, k := range ks {
		dst = transport.AppendKey(dst, k)
	}
	return dst
}

func readKeys(r *transport.WireReader) []hashing.Key {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	ks := make([]hashing.Key, n)
	for i := range ks {
		ks[i] = r.Key()
	}
	return ks
}

func appendInt(dst []byte, x int) []byte { return transport.AppendInt(dst, int64(x)) }

// appendMap writes a map as a count and its entries in ascending key
// order, so that one map has one encoding.
func appendMap[K cmp.Ordered, V any](dst []byte, m map[K]V, key func([]byte, K) []byte, val func([]byte, V) []byte) []byte {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = transport.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = val(key(dst, k), m[k])
	}
	return dst
}

// readMap reads what appendMap wrote; an entry takes at least elemMin
// bytes, and no entries read as nil.
func readMap[K comparable, V any](r *transport.WireReader, elemMin int, key func(*transport.WireReader) K, val func(*transport.WireReader) V) map[K]V {
	n := r.Count(elemMin)
	if n == 0 {
		return nil
	}
	m := make(map[K]V, n)
	for i := 0; i < n; i++ {
		k := key(r)
		m[k] = val(r)
	}
	return m
}

func appendParams(dst []byte, p Params) []byte {
	return appendMap(dst, p, transport.AppendString, transport.AppendBytes)
}

func readParams(r *transport.WireReader) Params {
	return readMap(r, 2, (*transport.WireReader).Str, (*transport.WireReader).Bytes)
}

// AppendWire implements transport.Wire.
func (m RunMapReq) AppendWire(dst []byte) []byte {
	dst = slices.Grow(dst, 256)
	dst = transport.AppendString(dst, m.Job)
	dst = transport.AppendString(dst, m.Namespace)
	dst = transport.AppendString(dst, m.App)
	dst = appendParams(dst, m.Params)
	dst = transport.AppendKey(dst, m.BlockKey)
	dst = append(dst, m.BlockSum[:]...)
	dst = transport.AppendString(dst, m.Task)
	dst = transport.AppendInt(dst, int64(m.Attempt))
	dst = appendNodeIDs(dst, m.ReduceServers)
	dst = appendKeys(dst, m.ReduceBounds)
	dst = appendInts(dst, m.OnlyPartitions)
	return transport.AppendInt(dst, int64(m.SpillThreshold))
}

// ParseWire implements transport.Wire.
func (m *RunMapReq) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = RunMapReq{Job: r.Str(), Namespace: r.Str(), App: r.Str(), Params: readParams(&r), BlockKey: r.Key()}
	copy(m.BlockSum[:], r.Raw(len(m.BlockSum)))
	m.Task, m.Attempt = r.Str(), r.Int()
	m.ReduceServers = readNodeIDs(&r)
	m.ReduceBounds = readKeys(&r)
	m.OnlyPartitions = readInts(&r)
	m.SpillThreshold = r.Int()
	return r.Done()
}

// AppendWire implements transport.Wire.
func (m RunMapResp) AppendWire(dst []byte) []byte {
	dst = appendInt64s(dst, m.PartBytes)
	dst = appendInts(dst, m.Lost)
	dst = transport.AppendBool(dst, m.CacheHit)
	return transport.AppendBool(dst, m.RemoteRead)
}

// ParseWire implements transport.Wire.
func (m *RunMapResp) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = RunMapResp{PartBytes: readInt64s(&r), Lost: readInts(&r), CacheHit: r.Bool(), RemoteRead: r.Bool()}
	return r.Done()
}

// AppendWire implements transport.Wire.
func (m RunReduceReq) AppendWire(dst []byte) []byte {
	dst = slices.Grow(dst, 256)
	dst = transport.AppendString(dst, m.Job)
	dst = transport.AppendString(dst, m.Namespace)
	dst = transport.AppendString(dst, m.App)
	dst = appendParams(dst, m.Params)
	dst = transport.AppendUvarint(dst, uint64(len(m.Parts)))
	for _, p := range m.Parts {
		dst = transport.AppendInt(dst, int64(p.Partition))
		dst = transport.AppendString(dst, string(p.Holder))
		dst = transport.AppendInt(dst, p.Bytes)
	}
	dst = transport.AppendString(dst, m.OutputFile)
	return transport.AppendString(dst, m.User)
}

// ParseWire implements transport.Wire.
func (m *RunReduceReq) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = RunReduceReq{Job: r.Str(), Namespace: r.Str(), App: r.Str(), Params: readParams(&r)}
	if n := r.Count(3); n > 0 {
		m.Parts = make([]ReducePart, n)
		for i := range m.Parts {
			m.Parts[i] = ReducePart{Partition: r.Int(), Holder: hashing.NodeID(r.Str()), Bytes: r.Int64()}
		}
	}
	m.OutputFile, m.User = r.Str(), r.Str()
	return r.Done()
}

// AppendWire implements transport.Wire.
func (m RunReduceResp) AppendWire(dst []byte) []byte {
	dst = transport.AppendInt(dst, m.Keys)
	dst = transport.AppendInt(dst, m.OutputBytes)
	dst = transport.AppendBool(dst, m.HasOutput)
	return appendInts(dst, m.Unreached)
}

// ParseWire implements transport.Wire.
func (m *RunReduceResp) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = RunReduceResp{Keys: r.Int64(), OutputBytes: r.Int64(), HasOutput: r.Bool(), Unreached: readInts(&r)}
	return r.Done()
}

// AppendWire implements transport.Wire.
func (m CacheRangeReq) AppendWire(dst []byte) []byte {
	dst = transport.AppendKey(dst, m.Start)
	return transport.AppendKey(dst, m.End)
}

// ParseWire implements transport.Wire.
func (m *CacheRangeReq) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = CacheRangeReq{Start: r.Key(), End: r.Key()}
	return r.Done()
}

// AppendWire implements transport.Wire.
func (m CacheRangeResp) AppendWire(dst []byte) []byte {
	size := binary.MaxVarintLen64
	for _, b := range m.Blocks {
		size += 8 + 4 + len(b.Check.Sum) + binary.MaxVarintLen64 + len(b.Data)
	}
	dst = slices.Grow(dst, size)
	dst = transport.AppendUvarint(dst, uint64(len(m.Blocks)))
	for _, b := range m.Blocks {
		dst = transport.AppendKey(dst, b.Key)
		dst = dhtfs.AppendBlockCheck(dst, b.Check)
		dst = transport.AppendBytes(dst, b.Data)
	}
	return dst
}

// ParseWire implements transport.Wire.
func (m *CacheRangeResp) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = CacheRangeResp{}
	if n := r.Count(33); n > 0 {
		m.Blocks = make([]CachedBlock, n)
		for i := range m.Blocks {
			m.Blocks[i] = CachedBlock{Key: r.Key(), Check: dhtfs.ReadBlockCheck(&r), Data: r.Bytes()}
		}
	}
	return r.Done()
}

// AppendWire implements transport.Wire.
func (m AdoptRangeReq) AppendWire(dst []byte) []byte {
	dst = transport.AppendKey(dst, m.Start)
	dst = transport.AppendKey(dst, m.End)
	dst = transport.AppendString(dst, string(m.Left))
	return transport.AppendString(dst, string(m.Right))
}

// ParseWire implements transport.Wire.
func (m *AdoptRangeReq) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = AdoptRangeReq{Start: r.Key(), End: r.Key(), Left: hashing.NodeID(r.Str()), Right: hashing.NodeID(r.Str())}
	return r.Done()
}

// AppendWire implements transport.Wire.
func (m AdoptRangeResp) AppendWire(dst []byte) []byte {
	return transport.AppendInt(dst, int64(m.Migrated))
}

// ParseWire implements transport.Wire.
func (m *AdoptRangeResp) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = AdoptRangeResp{Migrated: r.Int()}
	return r.Done()
}

// durableFormat is the first byte of a journal or reuse-marker file.
const durableFormat = 0x02

// readFormat reads a file's first byte and refuses any format but
// durableFormat (DESIGN.md §12).
func readFormat(r *transport.WireReader) {
	if b := r.Raw(1); b != nil && b[0] != durableFormat {
		r.Fail(fmt.Errorf("mapreduce: file format %#x, want %#x", b[0], durableFormat))
	}
}

func appendJobSpec(dst []byte, s JobSpec) []byte {
	dst = transport.AppendString(dst, s.ID)
	dst = transport.AppendString(dst, s.App)
	dst = transport.AppendUvarint(dst, uint64(len(s.Inputs)))
	for _, in := range s.Inputs {
		dst = transport.AppendString(dst, in)
	}
	dst = transport.AppendString(dst, s.User)
	dst = appendParams(dst, s.Params)
	dst = appendInt(dst, s.SpillThreshold)
	dst = transport.AppendString(dst, s.ReuseTag)
	dst = transport.AppendBool(dst, false) // a reserved byte: written false, skipped on read
	dst = appendInt(dst, s.MaxAttempts)
	return transport.AppendBool(dst, s.DisableJournal)
}

func readJobSpec(r *transport.WireReader) JobSpec {
	s := JobSpec{ID: r.Str(), App: r.Str()}
	if n := r.Count(1); n > 0 {
		s.Inputs = make([]string, n)
		for i := range s.Inputs {
			s.Inputs[i] = r.Str()
		}
	}
	s.User, s.Params, s.SpillThreshold = r.Str(), readParams(r), r.Int()
	s.ReuseTag = r.Str()
	r.Bool() // the reserved byte
	s.MaxAttempts, s.DisableJournal = r.Int(), r.Bool()
	return s
}

// appendFields writes the marker's fields: the journal embeds them, and a
// reuse marker file is them behind the format byte.
func (m marker) appendFields(dst []byte) []byte {
	dst = appendNodeIDs(dst, m.Servers)
	dst = appendKeys(dst, m.Bounds)
	dst = appendInt64s(dst, m.PartBytes)
	dst = appendInt(dst, m.Partitioner)
	dst = transport.AppendString(dst, m.Namespace)
	return append(dst, m.Sig[:]...)
}

// readMarker reads what appendFields wrote. The driver indexes the three
// slices by partition, so a table whose slices differ in length is refused.
func readMarker(r *transport.WireReader) marker {
	m := marker{Servers: readNodeIDs(r), Bounds: readKeys(r), PartBytes: readInt64s(r), Partitioner: r.Int(), Namespace: r.Str()}
	copy(m.Sig[:], r.Raw(len(m.Sig)))
	if r.Err() == nil && (len(m.Bounds) != len(m.Servers) || len(m.PartBytes) != len(m.Servers)) {
		r.Fail(fmt.Errorf("mapreduce: partition table of %d servers, %d bounds and %d sizes",
			len(m.Servers), len(m.Bounds), len(m.PartBytes)))
	}
	return m
}

// AppendWire implements transport.Wire.
func (m marker) AppendWire(dst []byte) []byte {
	return m.appendFields(append(dst, durableFormat))
}

// ParseWire implements transport.Wire.
func (m *marker) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	readFormat(&r)
	*m = readMarker(&r)
	return r.Done()
}

// AppendWire implements transport.Wire.
func (j journal) AppendWire(dst []byte) []byte {
	dst = appendJobSpec(append(dst, durableFormat), j.Spec)
	dst = transport.AppendString(dst, j.Phase)
	dst = appendInt(dst, j.Generation)
	dst = j.Mk.appendFields(dst)
	dst = appendMap(dst, j.MapsDone, transport.AppendString, transport.AppendBool)
	dst = appendMap(dst, j.Attempts, transport.AppendString, appendInt)
	dst = appendMap(dst, j.PartsDone, appendInt, transport.AppendString)
	return appendMap(dst, j.Lost, appendInt, transport.AppendBool)
}

// ParseWire implements transport.Wire.
func (j *journal) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	readFormat(&r)
	str, integer, boolean := (*transport.WireReader).Str, (*transport.WireReader).Int, (*transport.WireReader).Bool
	*j = journal{
		Spec: readJobSpec(&r), Phase: r.Str(), Generation: r.Int(), Mk: readMarker(&r),
		MapsDone:  readMap(&r, 2, str, boolean),
		Attempts:  readMap(&r, 2, str, integer),
		PartsDone: readMap(&r, 2, integer, str),
		Lost:      readMap(&r, 2, integer, boolean),
	}
	return r.Done()
}
