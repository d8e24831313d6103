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

	"eclipsemr/internal/hashing"
)

// blockBackend abstracts where a shard's block payloads live. The default
// memory backend serves tests, examples and simulation; the disk backend
// persists blocks as files so a restarted server still holds its shard —
// the durability the paper relies on when it calls the DHT file system
// "persistent".
type blockBackend interface {
	put(k hashing.Key, data []byte) error
	get(k hashing.Key) ([]byte, bool, error)
	has(k hashing.Key) bool
	delete(k hashing.Key) (int64, bool)
	keys() []hashing.Key
	// bytes returns the payload bytes held.
	bytes() int64
}

// memBackend keeps blocks in process memory.
type memBackend struct {
	mu     sync.RWMutex
	blocks map[hashing.Key][]byte
	total  int64
}

func newMemBackend() *memBackend {
	return &memBackend{blocks: make(map[hashing.Key][]byte)}
}

func (b *memBackend) put(k hashing.Key, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if old, ok := b.blocks[k]; ok {
		b.total -= int64(len(old))
	}
	b.blocks[k] = append([]byte(nil), data...)
	b.total += int64(len(data))
	return nil
}

func (b *memBackend) get(k hashing.Key) ([]byte, bool, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	data, ok := b.blocks[k]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), data...), true, nil
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
	data, ok := b.blocks[k]
	if !ok {
		return 0, false
	}
	delete(b.blocks, k)
	b.total -= int64(len(data))
	return int64(len(data)), true
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
}

const (
	blockExt = ".blk"
	tmpExt   = ".tmp" // a file being written, renamed into place when whole
)

func newDiskBackend(dir string) (*diskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dhtfs: block dir: %w", err)
	}
	b := &diskBackend{dir: dir, sizes: make(map[hashing.Key]int64)}
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

// get reads exactly the bytes the index promises. The index and the
// directory agree while the lock is held, and a block file is never
// written in place (put renames a new one over it), so the file opened
// under the lock has that size for as long as it stays open.
func (b *diskBackend) get(k hashing.Key) ([]byte, bool, error) {
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
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, false, fmt.Errorf("dhtfs: read block %s: %w", k, err)
	}
	return data, true, nil
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
