// Package cache implements EclipseMR's distributed in-memory key-value
// cache layer. Each worker server holds one Cache, split into two
// partitions exactly as in §II-B of the paper:
//
//   - iCache: input data blocks, cached implicitly by hash key when a map
//     task reads them. Because placement follows the scheduler's hash-key
//     ranges rather than storage locality, popular blocks spread across
//     the whole cluster's memory.
//   - oCache: intermediate results of map tasks and outputs of iterative
//     jobs, cached explicitly by applications and tagged with metadata
//     (application ID, user-assigned data ID). Entries carry a TTL.
//
// Both partitions use LRU replacement with byte-accounted capacity.
package cache

import (
	"container/list"
	"sync"
	"time"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/hashing"
)

// Entry is one cached object.
type Entry struct {
	// Key is the namespaced lookup key (e.g. "block:<hashkey>" for iCache
	// or "ocache:<app>:<tag>" for oCache).
	Key string
	// HashKey is the object's position in the ring key space; the
	// scheduler uses it for locality prediction and the migration option
	// uses it to find misplaced entries.
	HashKey hashing.Key
	// Size is the entry's memory footprint in bytes, charged against the
	// partition capacity. For simulated workloads Value may be nil while
	// Size is still accounted.
	Size int64
	// Value holds the cached object. A *blockbuf.Buf is held by reference:
	// the resident entry owns one, taken in Put and given up wherever the
	// entry leaves the partition, and every copy of the entry a lookup
	// hands out carries one of its own, taken under the partition's lock,
	// for the caller to drop with Release.
	Value any
	// Expires, when non-zero, invalidates the entry after this instant
	// (the paper's TTL on stored intermediate results).
	Expires time.Time
}

// retain takes the reference one holder of the entry owns.
func (e Entry) retain() {
	if b, ok := e.Value.(*blockbuf.Buf); ok {
		b.Retain()
	}
}

// Release gives up the reference a lookup took for the caller on the
// entry's block buffer; the caller must be done with the bytes. Entries
// holding anything else need no release and ignore it.
func (e Entry) Release() {
	if b, ok := e.Value.(*blockbuf.Buf); ok {
		b.Release()
	}
}

// Stats are cumulative counters for one partition.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Insertions  uint64
	Evictions   uint64
	Expirations uint64
}

// HitRatio returns hits / (hits+misses), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// LRU is a byte-capacity-bounded least-recently-used cache partition.
// It is safe for concurrent use.
type LRU struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	ll       *list.List // front = most recently used; values are *Entry
	table    map[string]*list.Element
	stats    Stats
	now      func() time.Time
}

// NewLRU creates a partition holding at most capacity bytes. A zero or
// negative capacity creates a cache that stores nothing (every Get is a
// miss), matching the "cache size 0" point in Figure 7.
func NewLRU(capacity int64) *LRU {
	return &LRU{
		capacity: capacity,
		ll:       list.New(),
		table:    make(map[string]*list.Element),
		now:      time.Now,
	}
}

// SetClock overrides the time source, for deterministic TTL tests and for
// the discrete-event simulator's virtual clock.
func (c *LRU) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Capacity returns the partition's byte capacity.
func (c *LRU) Capacity() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// Resize changes the capacity, evicting LRU entries if the cache now
// overflows.
func (c *LRU) Resize(capacity int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = capacity
	c.evictOverflow()
}

// Put inserts or replaces an entry, evicting least-recently-used entries
// to make room. It reports whether the entry was stored; entries larger
// than the whole partition are rejected. Either way whatever the key held
// before is gone: a value that no longer fits must not leave its
// predecessor answering for it.
func (c *LRU) Put(e Entry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	// capacity <= 0 means "store nothing": without the explicit check a
	// zero-size entry would slip past the size comparison and live forever,
	// because evictOverflow never fires at bytes == capacity == 0.
	fits := e.Size >= 0 && c.capacity > 0 && e.Size <= c.capacity
	if fits {
		e.retain() // before the old entry lets go: it may hold the same buffer
	}
	if el, ok := c.table[e.Key]; ok {
		c.removeElement(el)
	}
	if !fits {
		return false
	}
	c.table[e.Key] = c.ll.PushFront(&e)
	c.bytes += e.Size
	c.stats.Insertions++
	c.evictOverflow()
	return true
}

// evictOverflow drops LRU entries until the partition fits its capacity.
// Caller holds c.mu.
func (c *LRU) evictOverflow() {
	for c.bytes > c.capacity {
		back := c.ll.Back()
		if back == nil {
			return
		}
		c.removeElement(back)
		c.stats.Evictions++
	}
}

// removeElement unlinks an element and gives up the entry's reference:
// the one way an entry leaves the partition. Caller holds c.mu.
func (c *LRU) removeElement(el *list.Element) {
	e := el.Value.(*Entry)
	c.ll.Remove(el)
	delete(c.table, e.Key)
	c.bytes -= e.Size
	e.Release()
}

// handOut copies a resident entry for a caller, with a reference of the
// caller's own. Caller holds c.mu, which is what keeps the entry's
// reference, and so the buffer, alive while the new one is taken.
func handOut(e *Entry) Entry {
	e.retain()
	return *e
}

// Get looks up a key, promoting it to most-recently-used on a hit.
// Expired entries count as misses and are removed.
func (c *LRU) Get(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.table[key]
	if !ok {
		c.stats.Misses++
		return Entry{}, false
	}
	e := el.Value.(*Entry)
	if !e.Expires.IsZero() && c.now().After(e.Expires) {
		c.removeElement(el)
		c.stats.Expirations++
		c.stats.Misses++
		return Entry{}, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return handOut(e), true
}

// Peek looks up a key without promoting it or counting hit/miss stats.
// The scheduler's locality predictions use Peek so probing does not skew
// the measured hit ratio.
func (c *LRU) Peek(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.table[key]
	if !ok {
		return Entry{}, false
	}
	e := el.Value.(*Entry)
	if !e.Expires.IsZero() && c.now().After(e.Expires) {
		// Drop the dead entry just like Get: leaving it resident would
		// hold capacity and let EntriesInRange-style scans see it again.
		c.removeElement(el)
		c.stats.Expirations++
		return Entry{}, false
	}
	return handOut(e), true
}

// Remove deletes a key, reporting whether it was present.
func (c *LRU) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.table[key]
	if !ok {
		return false
	}
	c.removeElement(el)
	return true
}

// SweepExpired removes every expired entry and returns how many were
// dropped.
func (c *LRU) SweepExpired() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	var dropped int
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*Entry)
		if !e.Expires.IsZero() && now.After(e.Expires) {
			c.removeElement(el)
			c.stats.Expirations++
			dropped++
		}
		el = next
	}
	return dropped
}

// EntriesInRange returns (copies of) all live entries whose HashKey falls
// in [start, end). The misplaced-cached-data migration option from §II-E
// uses this to find entries a neighbor's new hash-key range now covers.
func (c *LRU) EntriesInRange(start, end hashing.Key) []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	var out []Entry
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*Entry)
		if !e.Expires.IsZero() && now.After(e.Expires) {
			continue // dead data must not migrate across the ring
		}
		if hashing.InRange(e.HashKey, start, end) {
			out = append(out, handOut(e))
		}
	}
	return out
}

// Len returns the number of live entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the bytes currently cached.
func (c *LRU) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of the partition's counters.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Clear drops every entry, preserving counters.
func (c *LRU) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = c.ll.Front() {
		c.removeElement(el)
	}
}
