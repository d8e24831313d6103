// Package blockbuf holds the one type a block's bytes travel in between
// the DHT file system's store, the iCache and a map task: an immutable,
// reference-counted buffer. Everyone who keeps the bytes holds a
// reference (the memory store for as long as it stores the block, an
// iCache entry for as long as it is resident, a reader until it is done
// reading) and nobody writes to them. When the last reference to a
// recyclable buffer goes, its array joins a free list that the next disk
// read draws from, so a cache that evicts one block per block it admits
// reads into the memory it just gave up.
//
// A reference that is never released costs nothing but the reuse: the
// buffer stays out of the free list and the collector takes it. A release
// too many panics, and a release too early is the one mistake that
// corrupts data (the array is refilled under a reader), which is why
// builds with the race detector overwrite every recycled array.
package blockbuf

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Buf is one block's bytes and the count of those holding them.
type Buf struct {
	data []byte
	refs atomic.Int32
	// recycle says the array is this buffer's alone, so the last release
	// may hand it to the free list.
	recycle bool
}

// free holds the buffers whose last reference went; only their arrays are
// used again (see Get). A sync.Pool empties itself over two collections,
// so what a burst of reads leaves behind does not stay resident.
var free sync.Pool

// poisonRecycled makes the last release overwrite the array before it
// joins the free list, so bytes read through a reference already given up
// are wrong at once and not only when the next read lands in them.
var poisonRecycled = RaceEnabled

// deadRefs is the count of a buffer whose last reference went: far enough
// below zero that every later Retain and Release panics, however many a
// caller that recovers from them makes.
const deadRefs = math.MinInt32 / 2

// poisonByte fills a poisoned array.
const poisonByte = 0xDB

// poison fills data by doubling copies, which the race detector sees as a
// few range writes and not one per byte.
func poison(data []byte) {
	if len(data) == 0 {
		return
	}
	data[0] = poisonByte
	for n := 1; n < len(data); n *= 2 {
		copy(data[n:], data[:n])
	}
}

func newBuf(data []byte, recycle bool) *Buf {
	b := &Buf{data: data, recycle: recycle}
	b.refs.Store(1)
	return b
}

// Of wraps bytes that others may hold too, so their array is never
// recycled. The caller gets the one reference.
func Of(data []byte) *Buf { return newBuf(data, false) }

// Adopt wraps bytes nobody else holds or will hold, such as the body of a
// reply: the last release recycles their array. The caller gets the one
// reference.
func Adopt(data []byte) *Buf { return newBuf(data, true) }

// Get returns a recyclable buffer of n bytes for the caller to fill before
// anyone else sees it, and whether its array came off the free list. An
// array is taken only if the n bytes use at least half of it, so that a
// holder accounting for the buffer by its length is off by less than two.
// Arrays too small are left to the collector on the way to one that fits
// (the short last block of a file must not cost the next full block its
// reuse); one too large goes back for a larger block.
func Get(n int) (b *Buf, reused bool) {
	for {
		dead, _ := free.Get().(*Buf)
		if dead == nil {
			break
		}
		array := dead.data[:0]
		if cap(array) < n {
			continue
		}
		if cap(array)-n > n {
			free.Put(dead)
			break
		}
		dead.data = nil // a reference given up sees nothing, not the next block
		return newBuf(array[:n], true), true
	}
	// Capacity as the allocator rounds it, which is memory spent either
	// way: blocks cut at record ends are all a little short of the block
	// size, and this way fit each other's arrays.
	return newBuf(slices.Grow([]byte(nil), n)[:n], true), false
}

// Bytes returns the block. It is valid until the caller releases the
// reference it reads through, and read-only always; its capacity is its
// length, so an append cannot reach what is left of a recycled array. A
// nil buffer is empty.
func (b *Buf) Bytes() []byte {
	if b == nil {
		return nil
	}
	return b.data[:len(b.data):len(b.data)]
}

// Len returns the block's size in bytes.
func (b *Buf) Len() int { return len(b.Bytes()) }

// Retain adds a reference, to be taken only through one that is held. It
// returns b.
func (b *Buf) Retain() *Buf {
	if b.refs.Add(1) <= 1 {
		panic("blockbuf: retain of a buffer nobody holds")
	}
	return b
}

// Release gives up one reference; the caller must not touch the bytes
// afterwards. Releasing a nil buffer does nothing.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	switch refs := b.refs.Add(-1); {
	case refs < 0:
		panic("blockbuf: release of a buffer nobody holds")
	case refs == 0:
		b.refs.Store(deadRefs)
		if b.recycle {
			if poisonRecycled {
				poison(b.data)
			}
			free.Put(b)
		}
	}
}
