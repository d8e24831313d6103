package dhtfs

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/transport"
)

// diskBackend keeps a shard's blocks in one file, blocks.slab, behind an
// index in memory (DESIGN.md "A block's life"): a block is a record in an
// extent of whole 4 KiB pages, written and read with WriteAt and ReadAt,
// so storing, reading or deleting one costs no file create, rename, open
// or unlink. The index is rebuilt from the record headers when the shard
// is opened, which is how a restarted node recovers its shard.
//
// The first page holds the slab's header: the magic "ESB1", a random id,
// and the CRC-32C of those 8 bytes. Records follow, each at the start of
// its extent, a 64-byte header and then the payload:
//
//	0   "EBR"
//	3   kind: 'L' live or 'F' free
//	4   uint32 slab id
//	8   uint32 extent length, in pages
//	12  uint64 key
//	20  uint32 CRC-32C of bytes 0-19 (the first part)
//	24  uint32 payload length
//	28  uint64 sequence number
//	36  BlockCheck, 24 bytes as AppendBlockCheck writes it
//	60  uint32 CRC-32C of bytes 0-59 (the second part)
//
// all integers little endian. A free header is the first part alone. A
// put writes the payload, then the header; a record it supersedes, and a
// deleted one, get a free header, and their extent goes back to the free
// list once no reader has it pinned. No I/O runs under the lock.
type diskBackend struct {
	file *os.File
	id   uint32 // the slab's, in its first page and in every header

	mu    sync.Mutex
	index map[hashing.Key]*extent
	free  []span // free extents, by offset, no two adjacent
	end   int64  // where the slab grows when no free extent fits
	seq   uint64 // the last sequence number handed out
	total int64  // payload bytes of the indexed records
	// reused and allocated count the reads that filled a buffer off the
	// free list and the ones that had to make one.
	reused, allocated *metrics.Counter
}

// extent is a stretch of the slab that holds a record, or is on its way
// to the free list. Everything but pins and dead is set before anyone
// else can see it and never changes.
type extent struct {
	off, len int64 // where it lies, header included; len is whole pages
	size     int64 // payload bytes
	check    BlockCheck
	seq      uint64
	// damaged: the second part of its header does not verify, so neither
	// its payload's length nor its check is known: reads fail as corrupt,
	// and has says no so that re-replication replaces the copy. Its seq is
	// 0, below every put's.
	damaged bool
	// pins counts the readers and writers using it, under the lock; once
	// it is out of the index (dead, set by retire), the last to unpin frees
	// it.
	pins int
	dead bool
}

// span is a free extent.
type span struct{ off, len int64 }

const (
	slabName   = "blocks.slab"
	slabPage   = 4096
	slabHeader = 64
	slabPart1  = 24 // the free header
	slabMagic  = "ESB1"
	recMagic   = "EBR"
	recLive    = 'L'
	recFree    = 'F'
)

func newDiskBackend(dir string) (*diskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dhtfs: block dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, slabName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dhtfs: open slab: %w", err)
	}
	b := &diskBackend{
		file: f, index: make(map[hashing.Key]*extent),
		reused: new(metrics.Counter), allocated: new(metrics.Counter),
	}
	if err = b.load(); err != nil {
		f.Close()
		return nil, err
	}
	return b, nil
}

// load starts a new slab in an empty file, or indexes the records of the
// one there by walking its extents from the first. A header of this slab
// whose first part verifies is a record: a live one is indexed, as
// damaged when its second part does not verify, and of two of one key the
// higher sequence number wins and the other is freed; a free one frees its
// extent. Anything else is skipped a page at a time, and its pages are
// free, until a header verifies, so a payload holding a record image is
// never indexed. Payloads are not read.
func (b *diskBackend) load() error {
	info, err := b.file.Stat()
	if err != nil {
		return fmt.Errorf("dhtfs: open slab: %w", err)
	}
	size := info.Size()
	var h [slabHeader]byte
	if size == 0 {
		b.id = rand.Uint32()
		first := make([]byte, slabPage)
		copy(first, slabMagic)
		binary.LittleEndian.PutUint32(first[4:], b.id)
		binary.LittleEndian.PutUint32(first[8:], BlockCRC(first[:8]))
		b.end = slabPage
		if _, err := b.file.WriteAt(first, 0); err != nil {
			return fmt.Errorf("dhtfs: start slab: %w", err)
		}
		return nil
	}
	if _, err := b.file.ReadAt(h[:12], 0); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("dhtfs: open slab: %w", err)
	}
	if string(h[:4]) != slabMagic || binary.LittleEndian.Uint32(h[8:]) != BlockCRC(h[:8]) {
		return fmt.Errorf("dhtfs: %s has no slab header", b.file.Name())
	}
	b.id = binary.LittleEndian.Uint32(h[4:])
	b.end = max(slabPage, (size+slabPage-1)&^(slabPage-1))
	for off := int64(slabPage); off < size; {
		n, err := b.file.ReadAt(h[:], off)
		if err != nil && !errors.Is(err, io.EOF) {
			return fmt.Errorf("dhtfs: open slab: %w", err)
		}
		e, k, kind, ok := b.parseHeader(h[:n])
		if !ok || off+e.len > b.end {
			b.addFreeLocked(span{off, slabPage})
			off += slabPage
			continue
		}
		e.off = off
		off += e.len
		if kind == recFree {
			b.addFreeLocked(span{e.off, e.len})
			continue
		}
		if e.off+slabHeader+e.size > size {
			*e = extent{off: e.off, len: e.len, damaged: true} // the payload was cut short
		}
		b.seq = max(b.seq, e.seq)
		e.pins = 1
		b.install(k, e)
	}
	return nil
}

// appendPart1 appends the first part of a header: of a free extent of n
// bytes, or of a record of block k.
func (b *diskBackend) appendPart1(dst []byte, n int64, kind byte, k hashing.Key) []byte {
	start := len(dst)
	dst = append(append(dst, recMagic...), kind)
	dst = binary.LittleEndian.AppendUint32(dst, b.id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n/slabPage))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(k))
	return binary.LittleEndian.AppendUint32(dst, BlockCRC(dst[start:]))
}

// appendLive appends the header of the record of block k that e holds.
func (b *diskBackend) appendLive(dst []byte, k hashing.Key, e *extent) []byte {
	start := len(dst)
	dst = b.appendPart1(dst, e.len, recLive, k)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.size))
	dst = binary.LittleEndian.AppendUint64(dst, e.seq)
	dst = AppendBlockCheck(dst, e.check)
	return binary.LittleEndian.AppendUint32(dst, BlockCRC(dst[start:]))
}

// parseHeader reads the header h starts with, if its first part is one of
// this slab's: the extent it describes, with what the second part says
// when it verifies and marked damaged when it does not.
func (b *diskBackend) parseHeader(h []byte) (e *extent, k hashing.Key, kind byte, ok bool) {
	le := binary.LittleEndian
	if len(h) < slabPart1 || string(h[:3]) != recMagic || le.Uint32(h[4:]) != b.id ||
		le.Uint32(h[20:]) != BlockCRC(h[:20]) || le.Uint32(h[8:]) == 0 {
		return nil, 0, 0, false
	}
	e = &extent{len: int64(le.Uint32(h[8:])) * slabPage}
	k, kind = hashing.Key(le.Uint64(h[12:])), h[3]
	switch {
	case kind == recFree:
	case kind != recLive:
		return nil, 0, 0, false
	case len(h) == slabHeader && le.Uint32(h[60:]) == BlockCRC(h[:60]) && slabHeader+int64(le.Uint32(h[24:])) <= e.len:
		e.size, e.seq = int64(le.Uint32(h[24:])), le.Uint64(h[28:])
		r := transport.NewWireReader(h[36:60])
		e.check = ReadBlockCheck(&r)
	default:
		e.damaged = true
	}
	return e, k, kind, true
}

// install indexes e as block k's record unless the one indexed has a
// higher sequence number, and frees the loser. The caller holds a pin on
// e, which install gives up.
func (b *diskBackend) install(k hashing.Key, e *extent) {
	b.mu.Lock()
	loser := e
	if old := b.index[k]; old == nil || old.seq < e.seq {
		b.index[k] = e
		b.total += e.size
		loser = old
		if old != nil {
			b.total -= old.size
			old.pins++
		}
	}
	if loser != e {
		e.pins--
	}
	b.mu.Unlock()
	if loser != nil {
		b.retire(loser)
	}
}

// retire writes a free header over e, which is out of the index, and gives
// up the caller's pin on it, so that the last pin frees it. If the header
// cannot be written, a reopened slab may find the record again: a deleted
// block back, or a superseded one that loses to its successor.
func (b *diskBackend) retire(e *extent) {
	if e.len > 0 {
		var h [slabPart1]byte
		_, _ = b.file.WriteAt(b.appendPart1(h[:0], e.len, recFree, 0), e.off)
	}
	b.mu.Lock()
	e.dead = true
	b.unpinLocked(e)
	b.mu.Unlock()
}

// unpinLocked drops a pin on e; the last one on a dead extent returns it
// to the free list. Caller holds b.mu.
func (b *diskBackend) unpinLocked(e *extent) {
	if e.pins--; e.pins == 0 && e.dead && e.len > 0 {
		b.addFreeLocked(span{e.off, e.len})
	}
}

// addFreeLocked returns s to the free list, merged with its neighbours.
// Caller holds b.mu.
func (b *diskBackend) addFreeLocked(s span) {
	i, _ := slices.BinarySearchFunc(b.free, s.off, func(f span, off int64) int { return cmp.Compare(f.off, off) })
	if i < len(b.free) && s.off+s.len == b.free[i].off {
		s.len += b.free[i].len
		b.free = slices.Delete(b.free, i, i+1)
	}
	if i > 0 && b.free[i-1].off+b.free[i-1].len == s.off {
		b.free[i-1].len += s.len
		return
	}
	b.free = slices.Insert(b.free, i, s)
}

// allocLocked takes an extent of n bytes, pinned and outside the index:
// the first free one by offset that is large enough, or a new one at the
// end of the slab. What is left of the free one comes back as a pinned
// extent for the caller to retire. Caller holds b.mu.
func (b *diskBackend) allocLocked(n int64) (e, rest *extent) {
	for i, f := range b.free {
		if f.len < n {
			continue
		}
		b.free = slices.Delete(b.free, i, i+1)
		if f.len > n {
			rest = &extent{off: f.off + n, len: f.len - n, pins: 1}
		}
		return &extent{off: f.off, len: n, pins: 1}, rest
	}
	e = &extent{off: b.end, len: n, pins: 1}
	b.end += n
	return e, nil
}

// put writes block k into a free extent, then indexes it.
func (b *diskBackend) put(k hashing.Key, data []byte, check BlockCheck) error {
	if len(data) > math.MaxUint32-slabHeader {
		return fmt.Errorf("dhtfs: write block %s: %d bytes do not fit a record", k, len(data))
	}
	return b.write(k, b.reserve(int64(len(data)), check), data)
}

// reserve takes an extent for a record of n payload bytes and gives it the
// next sequence number.
func (b *diskBackend) reserve(n int64, check BlockCheck) *extent {
	b.mu.Lock()
	e, rest := b.allocLocked((slabHeader + n + slabPage - 1) &^ (slabPage - 1))
	b.seq++
	e.seq, e.size, e.check = b.seq, n, check
	b.mu.Unlock()
	if rest != nil {
		b.retire(rest)
	}
	return e
}

// write writes the record of block k into e, which reserve took, and
// installs it.
func (b *diskBackend) write(k hashing.Key, e *extent, data []byte) error {
	var h [slabHeader]byte
	_, err := b.file.WriteAt(data, e.off+slabHeader)
	if err == nil {
		_, err = b.file.WriteAt(b.appendLive(h[:0], k, e), e.off)
	}
	if err != nil {
		b.retire(e)
		return fmt.Errorf("dhtfs: write block %s: %w", k, err)
	}
	b.install(k, e)
	return nil
}

// get reads exactly the bytes the index promises into a buffer the last
// release recycles. The extent stays pinned while they are read, so no put
// reuses it under the read.
func (b *diskBackend) get(k hashing.Key) (*blockbuf.Buf, BlockCheck, bool, error) {
	b.mu.Lock()
	e, ok := b.index[k]
	if !ok || e.damaged {
		b.mu.Unlock()
		if ok {
			return nil, BlockCheck{}, false, fmt.Errorf("%w: block %s: its record header is damaged", ErrCorrupt, k)
		}
		return nil, BlockCheck{}, false, nil
	}
	e.pins++
	b.mu.Unlock()
	buf, reused := blockbuf.Get(int(e.size))
	if reused {
		b.reused.Inc()
	} else {
		b.allocated.Inc()
	}
	_, err := b.file.ReadAt(buf.Bytes(), e.off+slabHeader)
	b.mu.Lock()
	b.unpinLocked(e)
	b.mu.Unlock()
	if err != nil {
		buf.Release()
		return nil, BlockCheck{}, false, fmt.Errorf("dhtfs: read block %s: %w", k, err)
	}
	return buf, e.check, true, nil
}

func (b *diskBackend) has(k hashing.Key) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.index[k]
	return ok && !e.damaged
}

func (b *diskBackend) delete(k hashing.Key) (int64, bool) {
	b.mu.Lock()
	e, ok := b.index[k]
	if !ok {
		b.mu.Unlock()
		return 0, false
	}
	delete(b.index, k)
	b.total -= e.size
	e.pins++
	b.mu.Unlock()
	b.retire(e)
	return e.size, true
}

func (b *diskBackend) keys() []hashing.Key {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]hashing.Key, 0, len(b.index))
	for k := range b.index {
		out = append(out, k)
	}
	return out
}

func (b *diskBackend) bytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}
