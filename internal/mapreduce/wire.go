package mapreduce

import (
	"encoding/binary"
	"slices"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

// The transport.Wire codecs of the mr.* messages: fields in declaration
// order, in the primitive encodings transport/wire.go lists. A ParseWire
// reads every field unconditionally (the reader's error is sticky) and
// checks Done once; []byte fields decode as sub-slices of the body.

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

// appendParams writes the entries in map order: an encoding of a Params
// with more than one entry is not canonical, only its decoding is.
func appendParams(dst []byte, p Params) []byte {
	dst = transport.AppendUvarint(dst, uint64(len(p)))
	for k, v := range p {
		dst = transport.AppendString(dst, k)
		dst = transport.AppendBytes(dst, v)
	}
	return dst
}

func readParams(r *transport.WireReader) Params {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	p := make(Params, n)
	for i := 0; i < n; i++ {
		k := r.Str()
		p[k] = r.Bytes()
	}
	return p
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
	dst = transport.AppendUvarint(dst, uint64(len(m.ReduceBounds)))
	for _, k := range m.ReduceBounds {
		dst = transport.AppendKey(dst, k)
	}
	dst = appendInts(dst, m.OnlyPartitions)
	dst = transport.AppendInt(dst, int64(m.SpillThreshold))
	return transport.AppendDuration(dst, m.TTL)
}

// ParseWire implements transport.Wire.
func (m *RunMapReq) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = RunMapReq{Job: r.Str(), Namespace: r.Str(), App: r.Str(), Params: readParams(&r), BlockKey: r.Key()}
	copy(m.BlockSum[:], r.Raw(len(m.BlockSum)))
	m.Task, m.Attempt = r.Str(), r.Int()
	m.ReduceServers = readNodeIDs(&r)
	if n := r.Count(8); n > 0 {
		m.ReduceBounds = make([]hashing.Key, n)
		for i := range m.ReduceBounds {
			m.ReduceBounds[i] = r.Key()
		}
	}
	m.OnlyPartitions = readInts(&r)
	m.SpillThreshold = r.Int()
	m.TTL = r.Duration()
	return r.Done()
}

// AppendWire implements transport.Wire.
func (m RunMapResp) AppendWire(dst []byte) []byte {
	dst = transport.AppendUvarint(dst, uint64(len(m.PartBytes)))
	for _, n := range m.PartBytes {
		dst = transport.AppendInt(dst, n)
	}
	dst = appendInts(dst, m.Lost)
	dst = transport.AppendBool(dst, m.CacheHit)
	return transport.AppendBool(dst, m.RemoteRead)
}

// ParseWire implements transport.Wire.
func (m *RunMapResp) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = RunMapResp{}
	if n := r.Count(1); n > 0 {
		m.PartBytes = make([]int64, n)
		for i := range m.PartBytes {
			m.PartBytes[i] = r.Int64()
		}
	}
	m.Lost = readInts(&r)
	m.CacheHit = r.Bool()
	m.RemoteRead = r.Bool()
	return r.Done()
}

// AppendWire implements transport.Wire.
func (m RunReduceReq) AppendWire(dst []byte) []byte {
	dst = slices.Grow(dst, 256)
	dst = transport.AppendString(dst, m.Job)
	dst = transport.AppendString(dst, m.Namespace)
	dst = transport.AppendString(dst, m.App)
	dst = appendParams(dst, m.Params)
	dst = transport.AppendInt(dst, int64(m.Partition))
	dst = transport.AppendString(dst, string(m.SegmentOwner))
	dst = transport.AppendString(dst, m.OutputFile)
	dst = transport.AppendInt(dst, int64(m.OutputBlockSize))
	dst = transport.AppendBool(dst, m.CacheOutputs)
	dst = transport.AppendDuration(dst, m.TTL)
	return transport.AppendString(dst, m.User)
}

// ParseWire implements transport.Wire.
func (m *RunReduceReq) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = RunReduceReq{
		Job: r.Str(), Namespace: r.Str(), App: r.Str(), Params: readParams(&r),
		Partition: r.Int(), SegmentOwner: hashing.NodeID(r.Str()),
		OutputFile: r.Str(), OutputBlockSize: r.Int(), CacheOutputs: r.Bool(),
		TTL: r.Duration(), User: r.Str(),
	}
	return r.Done()
}

// AppendWire implements transport.Wire.
func (m RunReduceResp) AppendWire(dst []byte) []byte {
	dst = transport.AppendInt(dst, m.Keys)
	dst = transport.AppendInt(dst, m.OutputBytes)
	return transport.AppendBool(dst, m.HasOutput)
}

// ParseWire implements transport.Wire.
func (m *RunReduceResp) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = RunReduceResp{Keys: r.Int64(), OutputBytes: r.Int64(), HasOutput: r.Bool()}
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
