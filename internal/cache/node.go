package cache

import (
	"crypto/sha1"
	"sync"
	"time"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/hashing"
)

// NodeCache is one worker server's slice of the distributed in-memory
// cache: an iCache partition for input blocks (raw bytes and the splits
// applications decode from them) and an oCache partition for tagged
// intermediate results and iteration outputs.
type NodeCache struct {
	ICache *LRU
	OCache *LRU

	// decoding holds the decoded-split builds in progress, by iCache key,
	// so concurrent misses on one split share one decode.
	decodeMu sync.Mutex
	decoding map[string]*decodeFlight
}

// decodeFlight is one decode in progress; split and err are set before
// done is closed.
type decodeFlight struct {
	done  chan struct{}
	split any
	err   error
}

// New builds a NodeCache with the given per-partition byte capacities.
func New(iCapacity, oCapacity int64) *NodeCache {
	return &NodeCache{
		ICache:   NewLRU(iCapacity),
		OCache:   NewLRU(oCapacity),
		decoding: make(map[string]*decodeFlight),
	}
}

// NewShared builds a NodeCache where both partitions share a single
// capacity figure split evenly, the configuration used by the paper's
// experiments ("we set the size of distributed in-memory cache per server
// to 1 GB").
func NewShared(capacity int64) *NodeCache {
	return New(capacity/2, capacity-capacity/2)
}

// SetClock overrides the time source of both partitions.
func (nc *NodeCache) SetClock(now func() time.Time) {
	nc.ICache.SetClock(now)
	nc.OCache.SetClock(now)
}

// BlockID names one version of an input block: the ring key it is
// stored, scheduled and migrated under, and the SHA-1 of its content as
// the file's metadata records it. Ring keys derive from (file name, block
// index), so a deleted and re-uploaded file reuses them; the digest keeps
// what the old file left in iCache from answering for the new one. The
// zero Sum names a block whose digest is not known.
type BlockID struct {
	Key hashing.Key
	Sum [sha1.Size]byte
}

// BlockKey is the iCache lookup key for an input block of unknown digest.
func BlockKey(k hashing.Key) string { return BlockID{Key: k}.rawKey() }

// version spells the ID inside an iCache lookup key.
func (id BlockID) version() string { return id.Key.String() + ":" + string(id.Sum[:]) }

// rawKey is the iCache lookup key of the block's bytes.
func (id BlockID) rawKey() string { return "block:" + id.version() }

// BlockIDOf returns the version whose bytes an iCache entry holds, and
// false for any other entry.
func BlockIDOf(e Entry) (BlockID, bool) {
	id := BlockID{Key: e.HashKey}
	if len(e.Key) < len(id.Sum) {
		return id, false
	}
	copy(id.Sum[:], e.Key[len(e.Key)-len(id.Sum):])
	return id, e.Key == id.rawKey()
}

// decodedKey is the iCache lookup key of app's decoded split of the block.
func (id BlockID) decodedKey(app string) string { return "split:" + app + ":" + id.version() }

// TagKey is the oCache lookup key for an explicitly cached object,
// namespaced by application ID and the user-assigned data ID (§II-B: the
// cached data is tagged with "application ID, user-assigned ID").
func TagKey(appID, dataID string) string {
	return "ocache:" + appID + ":" + dataID
}

// PutBlock caches an input data block of unknown digest in iCache. The
// cache shares data with the caller, who must not write to it afterwards.
func (nc *NodeCache) PutBlock(k hashing.Key, data []byte) bool {
	buf := blockbuf.Of(data)
	defer buf.Release()
	return nc.PutBlockVersion(BlockID{Key: k}, buf)
}

// GetBlock fetches an input block of unknown digest from iCache. The
// reference behind the bytes is never given up, so they stay valid and
// their buffer is never recycled.
func (nc *NodeCache) GetBlock(k hashing.Key) ([]byte, bool) {
	buf, ok := nc.GetBlockVersion(BlockID{Key: k})
	if !ok {
		return nil, false
	}
	return buf.Bytes(), true
}

// PutBlockVersion caches the bytes of one version of an input block in
// iCache. The entry takes a reference of its own; the caller keeps theirs.
func (nc *NodeCache) PutBlockVersion(id BlockID, buf *blockbuf.Buf) bool {
	return nc.ICache.Put(Entry{
		Key:     id.rawKey(),
		HashKey: id.Key,
		Size:    int64(buf.Len()),
		Value:   buf,
	})
}

// GetBlockVersion fetches the bytes of one version of an input block
// from iCache, with a reference the caller releases when done reading.
func (nc *NodeCache) GetBlockVersion(id BlockID) (*blockbuf.Buf, bool) {
	e, _ := nc.ICache.Get(id.rawKey())
	buf, ok := e.Value.(*blockbuf.Buf)
	return buf, ok
}

// HasBlockVersion reports whether iCache holds the block's bytes, without
// promoting the entry or counting a lookup.
func (nc *NodeCache) HasBlockVersion(id BlockID) bool {
	e, ok := nc.ICache.Peek(id.rawKey())
	e.Release()
	return ok
}

// GetDecoded fetches app's decoded split of the block from iCache.
func (nc *NodeCache) GetDecoded(app string, id BlockID) (any, bool) {
	e, ok := nc.ICache.Get(id.decodedKey(app))
	return e.Value, ok
}

// Decode returns app's decoded split of the block after a GetDecoded
// miss, running decode unless another caller is already building the same
// split (then it waits and shares that result) or finished building it
// since the miss. The split decode returns is cached in iCache under the
// block's ring key, charged at the size decode reports; an error caches
// nothing and is returned to every caller sharing the build. built
// reports that this call ran decode.
//
// The split is shared by every caller and by later hits: nobody may
// write to it.
func (nc *NodeCache) Decode(app string, id BlockID, decode func() (split any, size int64, err error)) (split any, built bool, err error) {
	key := id.decodedKey(app)
	nc.decodeMu.Lock()
	if f, ok := nc.decoding[key]; ok {
		nc.decodeMu.Unlock()
		<-f.done
		return f.split, false, f.err
	}
	if e, ok := nc.ICache.Peek(key); ok {
		nc.decodeMu.Unlock()
		return e.Value, false, nil
	}
	f := &decodeFlight{done: make(chan struct{})}
	nc.decoding[key] = f
	nc.decodeMu.Unlock()

	var size int64
	f.split, size, f.err = decode()
	if f.err == nil {
		nc.ICache.Put(Entry{Key: key, HashKey: id.Key, Size: size, Value: f.split})
	}
	// The entry is visible before the flight leaves the table, so a caller
	// arriving now finds one or the other.
	nc.decodeMu.Lock()
	delete(nc.decoding, key)
	nc.decodeMu.Unlock()
	close(f.done)
	return f.split, true, f.err
}

// PutTagged caches an application-tagged object (intermediate result or
// iteration output) in oCache with an optional TTL.
func (nc *NodeCache) PutTagged(appID, dataID string, hashKey hashing.Key, data []byte, ttl time.Duration) bool {
	e := Entry{
		Key:     TagKey(appID, dataID),
		HashKey: hashKey,
		Size:    int64(len(data)),
		Value:   data,
	}
	if ttl > 0 {
		e.Expires = nowOf(nc.OCache).Add(ttl)
	}
	return nc.OCache.Put(e)
}

// GetTagged fetches an application-tagged object from oCache.
func (nc *NodeCache) GetTagged(appID, dataID string) ([]byte, bool) {
	e, ok := nc.OCache.Get(TagKey(appID, dataID))
	if !ok {
		return nil, false
	}
	data, _ := e.Value.([]byte)
	return data, true
}

// CombinedStats sums the two partitions' counters, the figure the paper
// reports as "the overall cache hit ratio".
func (nc *NodeCache) CombinedStats() Stats {
	i, o := nc.ICache.Stats(), nc.OCache.Stats()
	return Stats{
		Hits:        i.Hits + o.Hits,
		Misses:      i.Misses + o.Misses,
		Insertions:  i.Insertions + o.Insertions,
		Evictions:   i.Evictions + o.Evictions,
		Expirations: i.Expirations + o.Expirations,
	}
}

func nowOf(c *LRU) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now()
}
