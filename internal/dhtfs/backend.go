package dhtfs

import (
	"fmt"
	"hash/crc32"
	"sync"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/hashing"
)

// blockBackend abstracts where a shard's block payloads live. The default
// memory backend serves tests, examples and simulation; the disk backend
// persists blocks in one file so a restarted server still holds its shard —
// the durability the paper relies on when it calls the DHT file system
// "persistent".
type blockBackend interface {
	// put stores data, which the caller has checked against check.CRC and
	// hands over: it never writes to data again.
	put(k hashing.Key, data []byte, check BlockCheck) error
	// get returns the block as stored, unchecked, with a reference the
	// caller releases, and what is kept beside it.
	get(k hashing.Key) (*blockbuf.Buf, BlockCheck, bool, error)
	has(k hashing.Key) bool
	delete(k hashing.Key) (int64, bool)
	keys() []hashing.Key
	// bytes returns the payload bytes held.
	bytes() int64
}

// BlockCheck is what a shard keeps beside a block and sends with it
// (DESIGN.md "A block's life"): the CRC-32C a copy of the bytes is checked
// against after it crossed a disk or a socket, and the digest its writer
// took (hashing.BlockDigest), which names the version.
type BlockCheck struct {
	CRC uint32
	Sum hashing.Digest
}

// BlockCRC computes a CRC-32C (Castagnoli), the one checksum of this
// package: of a block, of a slab record's header, of a metadata.log record.
func BlockCRC(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// memBlock is one block of a memBackend.
type memBlock struct {
	buf   *blockbuf.Buf
	check BlockCheck
}

// memBackend keeps blocks in process memory: the very bytes put was
// handed, which their writer gave up (DESIGN.md §12 "Ownership of aliased
// bytes"), in a buffer the backend holds a reference to for as long as it
// stores the block and readers share. Their array is never recycled: the
// collector takes it once the last holder lets go.
type memBackend struct {
	mu     sync.RWMutex
	blocks map[hashing.Key]memBlock
	total  int64
}

func newMemBackend() *memBackend {
	return &memBackend{blocks: make(map[hashing.Key]memBlock)}
}

func (b *memBackend) put(k hashing.Key, data []byte, check BlockCheck) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dropLocked(k)
	b.blocks[k] = memBlock{buf: blockbuf.Of(data), check: check}
	b.total += int64(len(data))
	return nil
}

// get returns the stored buffer. Race builds check it against the CRC put
// was handed with: a writer that touched its bytes after handing them over
// then fails the read instead of serving what it wrote.
func (b *memBackend) get(k hashing.Key) (*blockbuf.Buf, BlockCheck, bool, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	blk, ok := b.blocks[k]
	if !ok {
		return nil, BlockCheck{}, false, nil
	}
	if blockbuf.RaceEnabled {
		if err := blk.check.verify(k, blk.buf.Bytes()); err != nil {
			return nil, BlockCheck{}, false, fmt.Errorf("%w after its writer handed it over", err)
		}
	}
	return blk.buf.Retain(), blk.check, true, nil
}

func (b *memBackend) has(k hashing.Key) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.blocks[k]
	return ok
}

func (b *memBackend) delete(k hashing.Key) (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropLocked(k)
}

// dropLocked forgets a block and the backend's reference to its buffer,
// which readers holding their own keep reading. Caller holds b.mu.
func (b *memBackend) dropLocked(k hashing.Key) (int64, bool) {
	blk, ok := b.blocks[k]
	if !ok {
		return 0, false
	}
	size := int64(blk.buf.Len())
	delete(b.blocks, k)
	b.total -= size
	blk.buf.Release()
	return size, true
}

func (b *memBackend) keys() []hashing.Key {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]hashing.Key, 0, len(b.blocks))
	for k := range b.blocks {
		out = append(out, k)
	}
	return out
}

func (b *memBackend) bytes() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.total
}
