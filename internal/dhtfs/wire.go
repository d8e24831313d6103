package dhtfs

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"slices"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

// The transport.Wire codecs of the fs.* messages: fields in declaration
// order, in the primitive encodings transport/wire.go lists. A ParseWire
// reads every field unconditionally (the reader's error is sticky; the
// calls inside a composite literal run left to right) and checks Done
// once. Data fields decode as sub-slices of the received body, which is
// its receiver's to give: the Store keeps what it is handed as it is and
// never writes through it.

// The messages that carry a block's bytes (putBlockReq, getBlockResp,
// putFileReq, getFileResp) leave the one large growth of dst to the append
// of the block: a slices.Grow ahead of it would clear the 256 KiB the
// block then fills.

// AppendBlockCheck appends a BlockCheck, a field of every message that
// carries a block: the CRC as 4 bytes, big endian, then the 20 bytes of the
// digest.
func AppendBlockCheck(dst []byte, c BlockCheck) []byte {
	dst = binary.BigEndian.AppendUint32(dst, c.CRC)
	return append(dst, c.Sum[:]...)
}

// checkSize is the length of an encoded BlockCheck.
const checkSize = 4 + sha1.Size

// ReadBlockCheck reads what AppendBlockCheck appended.
func ReadBlockCheck(r *transport.WireReader) (c BlockCheck) {
	if raw := r.Raw(checkSize); raw != nil {
		c.CRC = binary.BigEndian.Uint32(raw)
		copy(c.Sum[:], raw[4:])
	}
	return c
}

func (m putBlockReq) AppendWire(dst []byte) []byte {
	dst = transport.AppendKey(dst, m.Key)
	dst = AppendBlockCheck(dst, m.Check)
	return transport.AppendBytes(dst, m.Data)
}

func (m *putBlockReq) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = putBlockReq{Key: r.Key(), Check: ReadBlockCheck(&r), Data: r.Bytes()}
	return r.Done()
}

func (m getBlockReq) AppendWire(dst []byte) []byte { return transport.AppendKey(dst, m.Key) }

func (m *getBlockReq) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = getBlockReq{Key: r.Key()}
	return r.Done()
}

func (m getBlockResp) AppendWire(dst []byte) []byte {
	dst = AppendBlockCheck(dst, m.Check)
	return transport.AppendBytes(dst, m.Data)
}

func (m *getBlockResp) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = getBlockResp{Check: ReadBlockCheck(&r), Data: r.Bytes()}
	return r.Done()
}

func (m hasResp) AppendWire(dst []byte) []byte { return transport.AppendBool(dst, m.Has) }

func (m *hasResp) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = hasResp{Has: r.Bool()}
	return r.Done()
}

func (m getMetaReq) AppendWire(dst []byte) []byte {
	dst = transport.AppendString(dst, m.Name)
	return transport.AppendString(dst, m.User)
}

func (m *getMetaReq) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = getMetaReq{Name: r.Str(), User: r.Str()}
	return r.Done()
}

func (m putFileReq) AppendWire(dst []byte) []byte {
	dst = m.Meta.AppendWire(dst)
	dst = AppendBlockCheck(dst, m.Check)
	return transport.AppendBytes(dst, m.Data)
}

func (m *putFileReq) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = putFileReq{Meta: parseMetadata(&r), Check: ReadBlockCheck(&r), Data: r.Bytes()}
	return r.Done()
}

func (m getFileResp) AppendWire(dst []byte) []byte {
	dst = m.Meta.AppendWire(dst)
	dst = transport.AppendBool(dst, m.HasData)
	dst = AppendBlockCheck(dst, m.Check)
	return transport.AppendBytes(dst, m.Data)
}

func (m *getFileResp) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = getFileResp{Meta: parseMetadata(&r), HasData: r.Bool(), Check: ReadBlockCheck(&r), Data: r.Bytes()}
	return r.Done()
}

func (m nameReq) AppendWire(dst []byte) []byte { return transport.AppendString(dst, m.Name) }

func (m *nameReq) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = nameReq{Name: r.Str()}
	return r.Done()
}

func (m listMetaResp) AppendWire(dst []byte) []byte {
	dst = transport.AppendUvarint(dst, uint64(len(m.Names)))
	for _, name := range m.Names {
		dst = transport.AppendString(dst, name)
	}
	return dst
}

func (m *listMetaResp) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = listMetaResp{}
	if n := r.Count(1); n > 0 {
		m.Names = make([]string, n)
		for i := range m.Names {
			m.Names[i] = r.Str()
		}
	}
	return r.Done()
}

func (empty) AppendWire(dst []byte) []byte { return dst }

func (*empty) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	return r.Done()
}

func (m readSegReq) AppendWire(dst []byte) []byte {
	dst = transport.AppendString(dst, m.Job)
	return transport.AppendString(dst, m.Partition)
}

func (m *readSegReq) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = readSegReq{Job: r.Str(), Partition: r.Str()}
	return r.Done()
}

func (m segBatchHdr) AppendWire(dst []byte) []byte {
	dst = transport.AppendString(dst, m.Job)
	dst = transport.AppendDuration(dst, m.TTL)
	dst = transport.AppendUvarint(dst, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		dst = transport.AppendString(dst, e.Partition)
		dst = transport.AppendString(dst, e.Task)
		dst = transport.AppendInt(dst, int64(e.Attempt))
		dst = transport.AppendInt(dst, int64(e.Seq))
		dst = transport.AppendInt(dst, int64(e.Len))
	}
	return dst
}

func (m *segBatchHdr) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = segBatchHdr{Job: r.Str(), TTL: r.Duration()}
	if n := r.Count(5); n > 0 {
		m.Entries = make([]segBatchPart, n)
		for i := range m.Entries {
			m.Entries[i] = segBatchPart{Partition: r.Str(), Task: r.Str(), Attempt: r.Int(), Seq: r.Int(), Len: r.Int()}
		}
	}
	return r.Done()
}

func (m rawTaggedHdr) AppendWire(dst []byte) []byte {
	dst = transport.AppendUvarint(dst, uint64(len(m.Tags)))
	for _, t := range m.Tags {
		dst = transport.AppendString(dst, t.Task)
		dst = transport.AppendInt(dst, int64(t.Attempt))
		dst = transport.AppendInt(dst, int64(t.Seq))
		dst = transport.AppendInt(dst, int64(t.Len))
	}
	return dst
}

func (m *rawTaggedHdr) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = rawTaggedHdr{}
	if n := r.Count(4); n > 0 {
		m.Tags = make([]rawTaggedPart, n)
		for i := range m.Tags {
			m.Tags[i] = rawTaggedPart{Task: r.Str(), Attempt: r.Int(), Seq: r.Int(), Len: r.Int()}
		}
	}
	return r.Done()
}

// AppendWire implements transport.Wire. Created travels in
// time.Time.MarshalBinary's format, which is what gob sent: the instant
// and the zone offset survive, the monotonic reading does not.
func (m Metadata) AppendWire(dst []byte) []byte {
	dst = slices.Grow(dst, m.wireSize())
	dst = transport.AppendString(dst, m.Name)
	dst = transport.AppendString(dst, m.Owner)
	dst = append(dst, byte(m.Perm))
	dst = transport.AppendInt(dst, m.Size)
	dst = transport.AppendInt(dst, int64(m.BlockSize))
	dst = transport.AppendUvarint(dst, uint64(len(m.BlockKeys)))
	for _, k := range m.BlockKeys {
		dst = transport.AppendKey(dst, k)
	}
	dst = transport.AppendUvarint(dst, uint64(len(m.BlockSums)))
	for i := range m.BlockSums {
		dst = append(dst, m.BlockSums[i][:]...)
	}
	created, err := m.Created.MarshalBinary()
	if err != nil {
		// Only a zone offset no real zone has is refused; the instant
		// still crosses.
		created, _ = m.Created.UTC().MarshalBinary()
	}
	return transport.AppendBytes(dst, created)
}

// wireSize bounds the length of m's encoding.
func (m Metadata) wireSize() int {
	return 64 + len(m.Name) + len(m.Owner) + 8*len(m.BlockKeys) + sha1.Size*len(m.BlockSums)
}

// ParseWire implements transport.Wire.
func (m *Metadata) ParseWire(src []byte) error {
	r := transport.NewWireReader(src)
	*m = parseMetadata(&r)
	return r.Done()
}

// parseMetadata reads one Metadata, alone in a message or a field of a
// larger one. A block without its digest, or a digest without its block,
// is refused: it comes from a peer or from metadata.log, and every reader
// indexes one by the other. So is a size its blocks cannot hold (see
// checkSize).
func parseMetadata(r *transport.WireReader) Metadata {
	m := Metadata{Name: r.Str(), Owner: r.Str()}
	if perm := r.Raw(1); perm != nil {
		m.Perm = Perm(perm[0])
	}
	m.Size = r.Int64()
	m.BlockSize = r.Int()
	if n := r.Count(8); n > 0 {
		m.BlockKeys = make([]hashing.Key, n)
		for i := range m.BlockKeys {
			m.BlockKeys[i] = r.Key()
		}
	}
	if n := r.Count(sha1.Size); n > 0 {
		m.BlockSums = make([][sha1.Size]byte, n)
		for i := range m.BlockSums {
			copy(m.BlockSums[i][:], r.Raw(sha1.Size))
		}
	}
	if created := r.Bytes(); r.Err() == nil {
		if err := m.Created.UnmarshalBinary(created); err != nil {
			r.Fail(fmt.Errorf("dhtfs: metadata timestamp: %w", err))
		}
	}
	if len(m.BlockSums) != len(m.BlockKeys) && r.Err() == nil {
		r.Fail(fmt.Errorf("dhtfs: metadata of %q has %d digests for %d blocks", m.Name, len(m.BlockSums), len(m.BlockKeys)))
	}
	if err := m.checkSize(); err != nil && r.Err() == nil {
		r.Fail(err)
	}
	return m
}

// checkSize refuses a size no upload writes: a negative one, a block size
// that is not positive for a file with blocks, or more bytes than the
// blocks hold at BlockSize each (Split and SplitRecords cut no longer
// block). ReadFile sizes its result by Size.
func (m Metadata) checkSize() error {
	blocks := int64(len(m.BlockKeys))
	switch {
	case m.Size < 0:
		return fmt.Errorf("dhtfs: metadata of %q has size %d", m.Name, m.Size)
	case blocks > 0 && m.BlockSize <= 0:
		return fmt.Errorf("dhtfs: metadata of %q has block size %d", m.Name, m.BlockSize)
	case m.Size > 0 && (blocks == 0 || (m.Size-1)/int64(m.BlockSize) >= blocks):
		// (Size-1)/BlockSize >= blocks is Size > blocks×BlockSize, which
		// could overflow.
		return fmt.Errorf("dhtfs: metadata of %q has size %d in %d blocks of %d", m.Name, m.Size, blocks, m.BlockSize)
	}
	return nil
}
