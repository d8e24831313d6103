package dhtfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/transport"
)

// blockBackend abstracts where a shard's block payloads live. The default
// memory backend serves tests, examples and simulation; the disk backend
// persists blocks as files so a restarted server still holds its shard —
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
// package: of a block, of a block file's trailer, of a metadata.log record.
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

// diskBackend persists each block as one file named by its hex key: the
// payload, then a trailer holding what is kept beside it (appendTrailer).
// An index of key→size and check is kept in memory and rebuilt from the
// trailers on startup, which is how a restarted node recovers its shard.
type diskBackend struct {
	mu    sync.RWMutex
	dir   string
	index map[hashing.Key]diskBlock
	total int64
	// reused and allocated count the reads that filled a buffer off the
	// free list and the ones that had to make one.
	reused, allocated *metrics.Counter
}

// diskBlock is one block of a diskBackend's index.
type diskBlock struct {
	size  int64 // payload bytes
	check BlockCheck
	// damaged: the file does not end in a whole trailer, so neither its
	// payload's length nor its check is known: reads fail as corrupt, and
	// has says no so that re-replication replaces the copy.
	damaged bool
}

const (
	blockExt = ".blk"
	tmpExt   = ".tmp" // a file being written, renamed into place when whole
)

// A block file ends in a 32-byte trailer:
//
//	check  24 bytes: the block's BlockCheck as AppendBlockCheck writes it
//	       (CRC-32C of the payload, then its digest or zero)
//	magic  4 bytes: "EBT1"
//	crc    uint32, big endian: CRC-32C of the 28 bytes before it
//
// A file that does not end in a whole trailer is damaged, whatever the
// reason: torn, truncated, or a flipped bit in the trailer itself.
const (
	trailerSize  = checkSize + 8
	trailerMagic = "EBT1"
)

func appendTrailer(dst []byte, check BlockCheck) []byte {
	start := len(dst)
	dst = AppendBlockCheck(dst, check)
	dst = append(dst, trailerMagic...)
	return binary.BigEndian.AppendUint32(dst, BlockCRC(dst[start:]))
}

// parseTrailer reads the last bytes of a block file: what the trailer
// holds, if they are a whole one.
func parseTrailer(tail []byte) (BlockCheck, bool) {
	if string(tail[checkSize:checkSize+4]) != trailerMagic ||
		binary.BigEndian.Uint32(tail[trailerSize-4:]) != BlockCRC(tail[:trailerSize-4]) {
		return BlockCheck{}, false
	}
	r := transport.NewWireReader(tail[:checkSize])
	return ReadBlockCheck(&r), true
}

func newDiskBackend(dir string) (*diskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dhtfs: block dir: %w", err)
	}
	b := &diskBackend{
		dir: dir, index: make(map[hashing.Key]diskBlock),
		reused: new(metrics.Counter), allocated: new(metrics.Counter),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name, torn := strings.CutSuffix(e.Name(), tmpExt)
		stem, isBlock := strings.CutSuffix(name, blockExt)
		raw, err := strconv.ParseUint(stem, 16, 64)
		if e.IsDir() || !isBlock || len(stem) != 16 || err != nil {
			continue // foreign file; leave it alone
		}
		if torn {
			// A put that died before its rename; the block is whatever the
			// last whole put left.
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("dhtfs: block dir: %w", err)
			}
			continue
		}
		blk, err := statBlock(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		b.index[hashing.Key(raw)] = blk
		b.total += blk.size
	}
	return b, nil
}

// statBlock builds the index entry of a block file from its size and its
// last bytes.
func statBlock(path string) (diskBlock, error) {
	f, err := os.Open(path)
	if err != nil {
		return diskBlock{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return diskBlock{}, err
	}
	if info.Size() < trailerSize {
		return diskBlock{damaged: true}, nil
	}
	var tail [trailerSize]byte
	if _, err := f.ReadAt(tail[:], info.Size()-trailerSize); err != nil {
		return diskBlock{}, fmt.Errorf("dhtfs: block dir: %w", err)
	}
	check, ok := parseTrailer(tail[:])
	if !ok {
		return diskBlock{damaged: true}, nil
	}
	return diskBlock{size: info.Size() - trailerSize, check: check}, nil
}

func (b *diskBackend) path(k hashing.Key) string {
	return filepath.Join(b.dir, k.String()+blockExt)
}

func (b *diskBackend) put(k hashing.Key, data []byte, check BlockCheck) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Write-then-rename so a crash mid-write never leaves a torn block.
	tmp := b.path(k) + tmpExt
	if err := writeBlockFile(tmp, data, check); err != nil {
		return fmt.Errorf("dhtfs: write block %s: %w", k, err)
	}
	if err := os.Rename(tmp, b.path(k)); err != nil {
		return fmt.Errorf("dhtfs: commit block %s: %w", k, err)
	}
	b.total += int64(len(data)) - b.index[k].size
	b.index[k] = diskBlock{size: int64(len(data)), check: check}
	return nil
}

// writeBlockFile writes a block file: payload, then trailer.
func writeBlockFile(path string, data []byte, check BlockCheck) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var trailer [trailerSize]byte
	if _, err = f.Write(data); err == nil {
		_, err = f.Write(appendTrailer(trailer[:0], check))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// get reads exactly the bytes the index promises, into a buffer the last
// release recycles. The index and the directory agree while the lock is
// held, and a block file is never written in place (put renames a new one
// over it), so the file opened under the lock has that size and that check
// for as long as it stays open.
func (b *diskBackend) get(k hashing.Key) (*blockbuf.Buf, BlockCheck, bool, error) {
	b.mu.RLock()
	blk, ok := b.index[k]
	if !ok {
		b.mu.RUnlock()
		return nil, BlockCheck{}, false, nil
	}
	if blk.damaged {
		b.mu.RUnlock()
		return nil, BlockCheck{}, false, fmt.Errorf("%w: block %s: no whole trailer", ErrCorrupt, k)
	}
	f, err := os.Open(b.path(k))
	b.mu.RUnlock()
	if errors.Is(err, fs.ErrNotExist) {
		return nil, BlockCheck{}, false, nil
	}
	if err != nil {
		return nil, BlockCheck{}, false, fmt.Errorf("dhtfs: read block %s: %w", k, err)
	}
	defer f.Close()
	buf, reused := blockbuf.Get(int(blk.size))
	if reused {
		b.reused.Inc()
	} else {
		b.allocated.Inc()
	}
	if _, err := io.ReadFull(f, buf.Bytes()); err != nil {
		buf.Release()
		return nil, BlockCheck{}, false, fmt.Errorf("dhtfs: read block %s: %w", k, err)
	}
	return buf, blk.check, true, nil
}

func (b *diskBackend) has(k hashing.Key) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	blk, ok := b.index[k]
	return ok && !blk.damaged
}

func (b *diskBackend) delete(k hashing.Key) (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	blk, ok := b.index[k]
	if !ok {
		return 0, false
	}
	delete(b.index, k)
	b.total -= blk.size
	_ = os.Remove(b.path(k)) // the index is authoritative
	return blk.size, true
}

func (b *diskBackend) keys() []hashing.Key {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]hashing.Key, 0, len(b.index))
	for k := range b.index {
		out = append(out, k)
	}
	return out
}

func (b *diskBackend) bytes() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.total
}
