package dhtfs

import (
	"errors"
	"fmt"
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
)

// blockBackend abstracts where a shard's block payloads live. The default
// memory backend serves tests, examples and simulation; the disk backend
// persists blocks as files so a restarted server still holds its shard —
// the durability the paper relies on when it calls the DHT file system
// "persistent".
type blockBackend interface {
	put(k hashing.Key, data []byte) error
	// get returns the block with a reference the caller releases.
	get(k hashing.Key) (*blockbuf.Buf, bool, error)
	has(k hashing.Key) bool
	delete(k hashing.Key) (int64, bool)
	keys() []hashing.Key
	// bytes returns the payload bytes held.
	bytes() int64
}

// memBackend keeps blocks in process memory: a copy of what put was
// given, in a buffer the backend holds a reference to for as long as it
// stores the block and readers share.
type memBackend struct {
	mu     sync.RWMutex
	blocks map[hashing.Key]*blockbuf.Buf
	total  int64
}

func newMemBackend() *memBackend {
	return &memBackend{blocks: make(map[hashing.Key]*blockbuf.Buf)}
}

func (b *memBackend) put(k hashing.Key, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dropLocked(k)
	b.blocks[k] = blockbuf.Of(append([]byte(nil), data...))
	b.total += int64(len(data))
	return nil
}

func (b *memBackend) get(k hashing.Key) (*blockbuf.Buf, bool, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	buf, ok := b.blocks[k]
	if !ok {
		return nil, false, nil
	}
	return buf.Retain(), true, nil
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
	buf, ok := b.blocks[k]
	if !ok {
		return 0, false
	}
	size := int64(buf.Len())
	delete(b.blocks, k)
	b.total -= size
	buf.Release()
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

// diskBackend persists each block as one file named by its hex key. An
// index of key→size is kept in memory and rebuilt from the directory on
// startup, which is how a restarted node recovers its shard.
type diskBackend struct {
	mu    sync.RWMutex
	dir   string
	sizes map[hashing.Key]int64
	total int64
	// reused and allocated count the reads that filled a buffer off the
	// free list and the ones that had to make one.
	reused, allocated *metrics.Counter
}

const (
	blockExt = ".blk"
	tmpExt   = ".tmp" // a file being written, renamed into place when whole
)

func newDiskBackend(dir string) (*diskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dhtfs: block dir: %w", err)
	}
	b := &diskBackend{
		dir: dir, sizes: make(map[hashing.Key]int64),
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
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		b.sizes[hashing.Key(raw)] = info.Size()
		b.total += info.Size()
	}
	return b, nil
}

func (b *diskBackend) path(k hashing.Key) string {
	return filepath.Join(b.dir, k.String()+blockExt)
}

func (b *diskBackend) put(k hashing.Key, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Write-then-rename so a crash mid-write never leaves a torn block.
	tmp := b.path(k) + tmpExt
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("dhtfs: write block %s: %w", k, err)
	}
	if err := os.Rename(tmp, b.path(k)); err != nil {
		return fmt.Errorf("dhtfs: commit block %s: %w", k, err)
	}
	if old, ok := b.sizes[k]; ok {
		b.total -= old
	}
	b.sizes[k] = int64(len(data))
	b.total += int64(len(data))
	return nil
}

// get reads exactly the bytes the index promises, into a buffer the last
// release recycles. The index and the directory agree while the lock is
// held, and a block file is never written in place (put renames a new one
// over it), so the file opened under the lock has that size for as long as
// it stays open.
func (b *diskBackend) get(k hashing.Key) (*blockbuf.Buf, bool, error) {
	b.mu.RLock()
	size, ok := b.sizes[k]
	if !ok {
		b.mu.RUnlock()
		return nil, false, nil
	}
	f, err := os.Open(b.path(k))
	b.mu.RUnlock()
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("dhtfs: read block %s: %w", k, err)
	}
	defer f.Close()
	buf, reused := blockbuf.Get(int(size))
	if reused {
		b.reused.Inc()
	} else {
		b.allocated.Inc()
	}
	if _, err := io.ReadFull(f, buf.Bytes()); err != nil {
		buf.Release()
		return nil, false, fmt.Errorf("dhtfs: read block %s: %w", k, err)
	}
	return buf, true, nil
}

func (b *diskBackend) has(k hashing.Key) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.sizes[k]
	return ok
}

func (b *diskBackend) delete(k hashing.Key) (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	size, ok := b.sizes[k]
	if !ok {
		return 0, false
	}
	delete(b.sizes, k)
	b.total -= size
	_ = os.Remove(b.path(k)) // the index is authoritative
	return size, true
}

func (b *diskBackend) keys() []hashing.Key {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]hashing.Key, 0, len(b.sizes))
	for k := range b.sizes {
		out = append(out, k)
	}
	return out
}

func (b *diskBackend) bytes() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.total
}
