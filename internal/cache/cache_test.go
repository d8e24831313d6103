package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/hashing"
)

func TestPutGetBasic(t *testing.T) {
	c := NewLRU(1024)
	if !c.Put(Entry{Key: "a", Size: 10, Value: "va"}) {
		t.Fatal("Put rejected")
	}
	e, ok := c.Get("a")
	if !ok || e.Value != "va" || e.Size != 10 {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get(missing) hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Insertions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutReplaceAdjustsBytes(t *testing.T) {
	c := NewLRU(100)
	c.Put(Entry{Key: "a", Size: 40})
	c.Put(Entry{Key: "a", Size: 10})
	if c.Bytes() != 10 || c.Len() != 1 {
		t.Fatalf("bytes=%d len=%d after replace", c.Bytes(), c.Len())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(30)
	c.Put(Entry{Key: "a", Size: 10})
	c.Put(Entry{Key: "b", Size: 10})
	c.Put(Entry{Key: "c", Size: 10})
	// Touch "a" so "b" becomes the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put(Entry{Key: "d", Size: 10})
	if _, ok := c.Peek("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Peek(k); !ok {
			t.Fatalf("%s should survive", k)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	c := NewLRU(10)
	if c.Put(Entry{Key: "big", Size: 11}) {
		t.Fatal("oversized entry accepted")
	}
	if c.Put(Entry{Key: "neg", Size: -1}) {
		t.Fatal("negative size accepted")
	}
	if c.Len() != 0 {
		t.Fatal("rejected entries stored")
	}
}

func TestZeroCapacityCachesNothing(t *testing.T) {
	c := NewLRU(0)
	stored := c.Put(Entry{Key: "a", Size: 1})
	if stored {
		t.Fatal("zero-capacity cache stored an entry")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("zero-capacity cache hit")
	}
	// Zero-size entries must be rejected too: a zero-capacity cache that
	// accepted them would hold them forever (evictOverflow never fires at
	// bytes == capacity == 0), contradicting "every Get is a miss".
	if c.Put(Entry{Key: "empty", Size: 0}) {
		t.Fatal("zero-capacity cache stored a zero-size entry")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d, want 0", c.Len())
	}
	neg := NewLRU(-5)
	if neg.Put(Entry{Key: "x", Size: 0}) {
		t.Fatal("negative-capacity cache stored an entry")
	}
}

func TestResizeEvicts(t *testing.T) {
	c := NewLRU(100)
	for i := 0; i < 10; i++ {
		c.Put(Entry{Key: fmt.Sprint(i), Size: 10})
	}
	c.Resize(35)
	if c.Bytes() > 35 {
		t.Fatalf("bytes=%d after shrink", c.Bytes())
	}
	if c.Len() != 3 {
		t.Fatalf("len=%d after shrink, want 3", c.Len())
	}
	if c.Capacity() != 35 {
		t.Fatalf("capacity=%d", c.Capacity())
	}
	// Survivors must be the most recently used (7, 8, 9).
	for _, k := range []string{"7", "8", "9"} {
		if _, ok := c.Peek(k); !ok {
			t.Fatalf("MRU entry %s evicted by Resize", k)
		}
	}
}

func TestTTLExpiry(t *testing.T) {
	c := NewLRU(100)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })
	c.Put(Entry{Key: "t", Size: 1, Expires: now.Add(10 * time.Second)})
	if _, ok := c.Get("t"); !ok {
		t.Fatal("entry expired early")
	}
	now = now.Add(11 * time.Second)
	if _, ok := c.Get("t"); ok {
		t.Fatal("expired entry still served")
	}
	st := c.Stats()
	if st.Expirations != 1 {
		t.Fatalf("expirations = %d", st.Expirations)
	}
	if _, ok := c.Peek("t"); ok {
		t.Fatal("Peek served expired entry")
	}
}

func TestPeekDropsExpiredEntry(t *testing.T) {
	c := NewLRU(100)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })
	c.Put(Entry{Key: "t", Size: 7, Expires: now.Add(time.Second)})
	now = now.Add(2 * time.Second)
	if _, ok := c.Peek("t"); ok {
		t.Fatal("Peek served expired entry")
	}
	// The expired entry must be removed, not left resident holding bytes.
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("expired entry still resident: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if st := c.Stats(); st.Expirations != 1 {
		t.Fatalf("expirations = %d", st.Expirations)
	}
	// Peek still must not count hits or misses.
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek counted stats: %+v", st)
	}
}

func TestEntriesInRangeSkipsExpired(t *testing.T) {
	c := NewLRU(1000)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })
	c.Put(Entry{Key: "live", HashKey: 100, Size: 1})
	c.Put(Entry{Key: "dying", HashKey: 200, Size: 1, Expires: now.Add(time.Second)})
	now = now.Add(2 * time.Second)
	got := c.EntriesInRange(0, 500)
	if len(got) != 1 || got[0].Key != "live" {
		t.Fatalf("EntriesInRange returned expired entries: %+v", got)
	}
}

func TestSweepExpired(t *testing.T) {
	c := NewLRU(100)
	now := time.Unix(0, 0)
	c.SetClock(func() time.Time { return now })
	c.Put(Entry{Key: "a", Size: 1, Expires: now.Add(time.Second)})
	c.Put(Entry{Key: "b", Size: 1, Expires: now.Add(time.Hour)})
	c.Put(Entry{Key: "c", Size: 1}) // no TTL
	now = now.Add(time.Minute)
	if n := c.SweepExpired(); n != 1 {
		t.Fatalf("SweepExpired = %d", n)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d after sweep", c.Len())
	}
}

func TestPeekDoesNotPromoteOrCount(t *testing.T) {
	c := NewLRU(20)
	c.Put(Entry{Key: "a", Size: 10})
	c.Put(Entry{Key: "b", Size: 10})
	c.Peek("a") // must NOT promote a
	c.Put(Entry{Key: "c", Size: 10})
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek promoted entry")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek counted stats: %+v", st)
	}
}

func TestRemoveAndClear(t *testing.T) {
	c := NewLRU(100)
	c.Put(Entry{Key: "a", Size: 5})
	if !c.Remove("a") || c.Remove("a") {
		t.Fatal("Remove semantics wrong")
	}
	if c.Bytes() != 0 {
		t.Fatalf("bytes=%d after remove", c.Bytes())
	}
	c.Put(Entry{Key: "b", Size: 5})
	c.Clear()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("Clear left entries")
	}
}

func TestEntriesInRange(t *testing.T) {
	c := NewLRU(1000)
	for i := 0; i < 10; i++ {
		k := hashing.Key(i * 100)
		c.Put(Entry{Key: fmt.Sprint(i), HashKey: k, Size: 1})
	}
	got := c.EntriesInRange(250, 550)
	if len(got) != 3 { // 300, 400, 500
		t.Fatalf("EntriesInRange = %d entries", len(got))
	}
	// Wrapped range.
	got = c.EntriesInRange(850, 150)
	if len(got) != 3 { // 900, 0, 100
		t.Fatalf("wrapped EntriesInRange = %d entries", len(got))
	}
}

func TestHitRatio(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 {
		t.Fatal("empty HitRatio != 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRatio() != 0.75 {
		t.Fatalf("HitRatio = %g", s.HitRatio())
	}
}

// Property: bytes accounting always equals the sum of live entry sizes and
// never exceeds capacity.
func TestBytesInvariant(t *testing.T) {
	type op struct {
		Key  uint8
		Size uint16
		Del  bool
	}
	f := func(ops []op) bool {
		c := NewLRU(4096)
		for _, o := range ops {
			k := fmt.Sprint(o.Key % 32)
			if o.Del {
				c.Remove(k)
			} else {
				c.Put(Entry{Key: k, Size: int64(o.Size % 1024)})
			}
			if c.Bytes() > 4096 || c.Bytes() < 0 {
				return false
			}
		}
		var total int64
		for _, e := range c.EntriesInRange(0, 0) { // full ring = all entries
			total += e.Size
		}
		return total == c.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewLRU(1 << 16)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := fmt.Sprint(rng.Intn(100))
				switch rng.Intn(3) {
				case 0:
					c.Put(Entry{Key: k, Size: int64(rng.Intn(256))})
				case 1:
					c.Get(k)
				case 2:
					c.Remove(k)
				}
			}
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.Bytes() > 1<<16 {
		t.Fatalf("capacity exceeded under concurrency: %d", c.Bytes())
	}
}

func TestNodeCacheBlocks(t *testing.T) {
	nc := New(1024, 1024)
	k := hashing.KeyOfString("block-0")
	if !nc.PutBlock(k, []byte("hello")) {
		t.Fatal("PutBlock failed")
	}
	data, ok := nc.GetBlock(k)
	if !ok || string(data) != "hello" {
		t.Fatalf("GetBlock = %q, %v", data, ok)
	}
	if _, ok := nc.GetBlock(hashing.KeyOfString("other")); ok {
		t.Fatal("GetBlock hit on missing block")
	}
}

func TestNodeCacheTagged(t *testing.T) {
	nc := New(1024, 1024)
	now := time.Unix(0, 0)
	nc.SetClock(func() time.Time { return now })
	hk := hashing.KeyOfString("wc:iter1")
	if !nc.PutTagged("wordcount", "iter1", hk, []byte("result"), time.Minute) {
		t.Fatal("PutTagged failed")
	}
	data, ok := nc.GetTagged("wordcount", "iter1")
	if !ok || string(data) != "result" {
		t.Fatalf("GetTagged = %q, %v", data, ok)
	}
	// Tags from other applications do not collide.
	if _, ok := nc.GetTagged("grep", "iter1"); ok {
		t.Fatal("cross-application tag hit")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := nc.GetTagged("wordcount", "iter1"); ok {
		t.Fatal("TTL not honored for tagged entry")
	}
}

func TestNodeCacheCombinedStats(t *testing.T) {
	nc := New(1024, 1024)
	k := hashing.KeyOfString("b")
	nc.PutBlock(k, []byte("x"))
	nc.GetBlock(k)                 // iCache hit
	nc.GetTagged("app", "missing") // oCache miss
	st := nc.CombinedStats()
	if st.Hits != 1 || st.Misses != 1 || st.Insertions != 1 {
		t.Fatalf("combined stats = %+v", st)
	}
	if st.HitRatio() != 0.5 {
		t.Fatalf("combined hit ratio = %g", st.HitRatio())
	}
}

func TestNewSharedSplitsCapacity(t *testing.T) {
	nc := NewShared(1001)
	if nc.ICache.Capacity()+nc.OCache.Capacity() != 1001 {
		t.Fatal("NewShared lost capacity to rounding")
	}
}

// TestBlockVersionsDoNotCollide: the same ring key under two digests is
// two blocks, and the digest-less PutBlock/GetBlock pair is a third.
func TestBlockVersionsDoNotCollide(t *testing.T) {
	nc := New(1024, 0)
	k := hashing.KeyOfString("f:0")
	v1 := BlockID{Key: k, Sum: [20]byte{1}}
	v2 := BlockID{Key: k, Sum: [20]byte{2}}
	nc.PutBlockVersion(v1, blockbuf.Of([]byte("old")))
	if _, ok := nc.GetBlockVersion(v2); ok {
		t.Fatal("a block answered for another digest")
	}
	if _, ok := nc.GetBlock(k); ok {
		t.Fatal("a digested block answered for the digest-less key")
	}
	nc.PutBlockVersion(v2, blockbuf.Of([]byte("new")))
	if data, _ := nc.GetBlockVersion(v1); string(data.Bytes()) != "old" {
		t.Fatalf("v1 = %q", data.Bytes())
	}
	if data, _ := nc.GetBlockVersion(v2); string(data.Bytes()) != "new" {
		t.Fatalf("v2 = %q", data.Bytes())
	}
	if !nc.HasBlockVersion(v1) || nc.HasBlockVersion(BlockID{Key: k, Sum: [20]byte{3}}) {
		t.Fatal("HasBlockVersion disagrees with GetBlockVersion")
	}
	for _, e := range nc.ICache.EntriesInRange(k, k+1) {
		if e.HashKey != k {
			t.Fatalf("entry %q sits under ring key %s, want %s", e.Key, e.HashKey, k)
		}
	}
}

// TestDecodeSharesOneBuild: callers that miss one split together run one
// decode between them; all get its split, and later callers get it from
// the cache, charged at the size the decoder reported.
func TestDecodeSharesOneBuild(t *testing.T) {
	nc := New(1024, 0)
	id := BlockID{Key: 7, Sum: [20]byte{9}}
	const callers = 8
	var calls, builders atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	decode := func() (any, int64, error) {
		if calls.Add(1) == 1 {
			close(entered)
		}
		<-release
		return "split", 100, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			split, built, err := nc.Decode("app", id, decode)
			if err != nil || split != "split" {
				t.Errorf("Decode = %v, %v", split, err)
			}
			if built {
				builders.Add(1)
			}
		}()
	}
	<-entered
	close(release)
	wg.Wait()
	if calls.Load() != 1 || builders.Load() != 1 {
		t.Fatalf("%d decodes by %d builders for %d concurrent callers, want 1 by 1", calls.Load(), builders.Load(), callers)
	}
	if split, ok := nc.GetDecoded("app", id); !ok || split != "split" {
		t.Fatalf("GetDecoded = %v, %v", split, ok)
	}
	if _, ok := nc.GetDecoded("other-app", id); ok {
		t.Fatal("one application's split answered for another")
	}
	if nc.ICache.Bytes() != 100 {
		t.Fatalf("iCache charges %d bytes for a split of reported size 100", nc.ICache.Bytes())
	}
	// A caller that missed before the build finished finds the entry.
	if _, built, _ := nc.Decode("app", id, decode); built {
		t.Fatal("Decode rebuilt a cached split")
	}
}

// TestDecodeErrorAndOversizeCacheNothing: a failed decode is returned and
// not remembered; a split larger than the partition is used once and not
// kept.
func TestDecodeErrorAndOversizeCacheNothing(t *testing.T) {
	nc := New(64, 0)
	id := BlockID{Key: 7}
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		_, built, err := nc.Decode("app", id, func() (any, int64, error) { return nil, 0, boom })
		if !built || !errors.Is(err, boom) {
			t.Fatalf("failing decode %d: built=%v err=%v", i, built, err)
		}
	}
	for i := 0; i < 2; i++ {
		split, built, err := nc.Decode("app", id, func() (any, int64, error) { return "big", 65, nil })
		if !built || err != nil || split != "big" {
			t.Fatalf("oversize decode %d: %v built=%v err=%v", i, split, built, err)
		}
	}
	if nc.ICache.Len() != 0 {
		t.Fatalf("iCache holds %d entries", nc.ICache.Len())
	}
}

// TestRejectedPutDropsThePreviousValue: a value that no longer fits the
// partition must not leave its predecessor answering under the same key
// (an oCache tag whose new iteration output outgrew the partition served
// the old iteration's bytes).
func TestRejectedPutDropsThePreviousValue(t *testing.T) {
	nc := New(0, 8)
	if !nc.PutTagged("app", "out:p0", 1, []byte("iter-1"), 0) {
		t.Fatal("a value that fits was rejected")
	}
	if nc.PutTagged("app", "out:p0", 1, []byte("iteration-2"), 0) {
		t.Fatal("a value larger than the partition was stored")
	}
	if data, ok := nc.GetTagged("app", "out:p0"); ok {
		t.Fatalf("the tag still answers with %q after a newer value was rejected", data)
	}
	if nc.OCache.Len() != 0 || nc.OCache.Bytes() != 0 {
		t.Fatalf("oCache holds %d entries, %d bytes", nc.OCache.Len(), nc.OCache.Bytes())
	}
}

// TestBufferLifecycleEveryLRUExit walks a cached block buffer
// out of the partition by each door while a reader holds its own
// reference: the reader's bytes stay intact until it releases, and its
// release is the last one, so the exit gave up exactly the entry's own.
func TestBufferLifecycleEveryLRUExit(t *testing.T) {
	const key = "block:a"
	content := bytes.Repeat([]byte{0x5A}, 64)
	other := func() Entry { return Entry{Key: "block:b", Size: 64, Value: blockbuf.Of(make([]byte, 64))} }
	cases := []struct {
		name string
		exit func(t *testing.T, c *LRU, now *time.Time)
	}{
		{"evict", func(t *testing.T, c *LRU, _ *time.Time) {
			c.Put(other())
			c.Put(Entry{Key: "block:c", Size: 64, Value: blockbuf.Of(make([]byte, 64))})
		}},
		{"replace", func(t *testing.T, c *LRU, _ *time.Time) {
			c.Put(Entry{Key: key, Size: 64, Value: blockbuf.Of(make([]byte, 64))})
		}},
		{"replace by another kind of value", func(t *testing.T, c *LRU, _ *time.Time) {
			c.Put(Entry{Key: key, Size: 1, Value: "split"})
		}},
		{"rejected put", func(t *testing.T, c *LRU, _ *time.Time) {
			if c.Put(Entry{Key: key, Size: 1 << 20, Value: blockbuf.Of(make([]byte, 1<<20))}) {
				t.Fatal("oversized entry stored")
			}
		}},
		{"remove", func(t *testing.T, c *LRU, _ *time.Time) {
			if !c.Remove(key) {
				t.Fatal("Remove found nothing")
			}
		}},
		{"expiry in Get", func(t *testing.T, c *LRU, now *time.Time) {
			*now = now.Add(time.Hour)
			if _, ok := c.Get(key); ok {
				t.Fatal("expired entry answered")
			}
		}},
		{"expiry in Peek", func(t *testing.T, c *LRU, now *time.Time) {
			*now = now.Add(time.Hour)
			if _, ok := c.Peek(key); ok {
				t.Fatal("expired entry answered")
			}
		}},
		{"expiry in SweepExpired", func(t *testing.T, c *LRU, now *time.Time) {
			*now = now.Add(time.Hour)
			if n := c.SweepExpired(); n != 1 {
				t.Fatalf("swept %d entries", n)
			}
		}},
		{"resize", func(t *testing.T, c *LRU, _ *time.Time) { c.Resize(0) }},
		{"clear", func(t *testing.T, c *LRU, _ *time.Time) { c.Clear() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(1000, 0)
			c := NewLRU(128)
			c.SetClock(func() time.Time { return now })
			buf := blockbuf.Adopt(bytes.Clone(content))
			if !c.Put(Entry{Key: key, HashKey: 1, Size: 64, Value: buf, Expires: now.Add(time.Minute)}) {
				t.Fatal("Put rejected")
			}
			buf.Release() // the entry has its own
			// Every way of reading pins; two of the three readers are done
			// before the entry leaves.
			reader, ok := c.Get(key)
			if !ok {
				t.Fatal("Get missed")
			}
			peeked, _ := c.Peek(key)
			peeked.Release()
			for _, e := range c.EntriesInRange(0, 0) {
				e.Release()
			}

			tc.exit(t, c, &now)

			if el, ok := c.table[key]; ok && el.Value.(*Entry).Value == any(buf) {
				t.Fatal("the entry is still resident")
			}
			// Had the exit recycled the array, this read would land in it.
			scribble, _ := blockbuf.Get(len(content))
			for i := range scribble.Bytes() {
				scribble.Bytes()[i] = 0xEE
			}
			held := reader.Value.(*blockbuf.Buf)
			if !bytes.Equal(held.Bytes(), content) {
				t.Fatalf("the reader's bytes changed under it: %x", held.Bytes()[:8])
			}
			scribble.Release()
			reader.Release() // must be the last reference...
			if !panicsOn(held.Release) {
				t.Fatal("after the reader's release the buffer was still held: the exit released nothing")
			}
		})
	}
}

// panicsOn reports whether f panicked.
func panicsOn(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
