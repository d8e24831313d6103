package dhtfs

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"eclipsemr/internal/hashing"
)

// slabRec is a live record found by walking a blocks.slab as it lies on
// disk.
type slabRec struct {
	key     hashing.Key
	off     int64 // of its header
	size    int64 // payload bytes; 0 when damaged
	seq     uint64
	check   BlockCheck
	damaged bool
}

// slabRecords walks dir's blocks.slab as opening it would, and returns its
// live records in file order, two of one key included.
func slabRecords(t *testing.T, dir string) []slabRec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, slabName))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 12 || string(data[:4]) != slabMagic {
		t.Fatalf("%s has no slab header", dir)
	}
	b := &diskBackend{id: binary.LittleEndian.Uint32(data[4:])}
	var recs []slabRec
	for off := int64(slabPage); off < int64(len(data)); {
		e, k, kind, ok := b.parseHeader(data[off:min(int64(len(data)), off+slabHeader)])
		if !ok {
			off += slabPage
			continue
		}
		if kind == recLive {
			recs = append(recs, slabRec{key: k, off: off, size: e.size, seq: e.seq, check: e.check, damaged: e.damaged})
		}
		off += e.len
	}
	return recs
}

// slabRecord returns block k's record in dir's blocks.slab, which must
// hold exactly one.
func slabRecord(t *testing.T, dir string, k hashing.Key) slabRec {
	t.Helper()
	var found []slabRec
	for _, rec := range slabRecords(t, dir) {
		if rec.key == k {
			found = append(found, rec)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%s holds %d live records of block %s: %+v", dir, len(found), k, found)
	}
	return found[0]
}

// lastRecordOfFile finds a block of meta whose record is the last in the
// slab of the first node of its replica set.
func lastRecordOfFile(t *testing.T, tc *testCluster, dirs map[hashing.NodeID]string, meta Metadata) (int, hashing.NodeID, slabRec) {
	t.Helper()
	for i, k := range meta.BlockKeys {
		set, _ := tc.ring.ReplicaSet(k, tc.services[tc.ids[0]].replicas)
		recs := slabRecords(t, dirs[set[0]])
		if last := recs[len(recs)-1]; last.key == k {
			return i, set[0], last
		}
	}
	t.Fatal("no block of the file is the last record of its first holder")
	return 0, "", slabRec{}
}

// dirNames lists a directory, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// writeAt overwrites part of a file in place.
func writeAt(path string, off int64, data []byte) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, off)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// openSlab opens the disk backend of dir.
func openSlab(t *testing.T, dir string) *diskBackend {
	t.Helper()
	b, err := newDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkOf(data []byte) BlockCheck {
	return BlockCheck{CRC: BlockCRC(data), Sum: hashing.BlockDigest(data)}
}

func mustPutBlock(t *testing.T, b *diskBackend, k hashing.Key, data []byte) {
	t.Helper()
	if err := b.put(k, slices.Clone(data), checkOf(data)); err != nil {
		t.Fatal(err)
	}
}

// readBlock reads block k off b: its bytes, or why not.
func readBlock(b *diskBackend, k hashing.Key) ([]byte, error) {
	buf, check, ok, err := b.get(k)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNotFound
	}
	defer buf.Release()
	if err := check.verify(k, buf.Bytes()); err != nil {
		return nil, err
	}
	return slices.Clone(buf.Bytes()), nil
}

func slabBytes(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, slabName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeSlab(t *testing.T, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, slabName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSlabRecovery: what a shard serves after its process died at each
// point of a put or a delete, or its slab was damaged, and what a running
// shard serves when two puts of one key finish out of order.
func TestSlabRecovery(t *testing.T) {
	k, k2, k3 := hashing.KeyOfString("k"), hashing.KeyOfString("k2"), hashing.KeyOfString("k3")
	v1, v2 := randomData(3000, 1), randomData(5000, 2)
	rows := []struct {
		name string
		// crash leaves dir as the row's story has it and returns the
		// blocks a reopened shard serves; a nil value is one it must not.
		crash func(t *testing.T, dir string) map[hashing.Key][]byte
	}{
		{"a re-put whose header never landed serves the old version", func(t *testing.T, dir string) map[hashing.Key][]byte {
			b := openSlab(t, dir)
			mustPutBlock(t, b, k, v1)
			before := slabBytes(t, dir)
			mustPutBlock(t, b, k, v2)
			after, rec := slabBytes(t, dir), slabRecord(t, dir, k)
			// The payload landed; the header, and the free header over the
			// old record that follows it, did not.
			image := append(before, make([]byte, len(after)-len(before))...)
			copy(image[rec.off+slabHeader:], after[rec.off+slabHeader:rec.off+slabHeader+rec.size])
			writeSlab(t, dir, image)
			return map[hashing.Key][]byte{k: v1}
		}},
		{"a delete whose free header landed stays deleted", func(t *testing.T, dir string) map[hashing.Key][]byte {
			b := openSlab(t, dir)
			mustPutBlock(t, b, k, v1)
			mustPutBlock(t, b, k2, v2)
			b.delete(k)
			return map[hashing.Key][]byte{k: nil, k2: v2}
		}},
		{"the higher sequence wins in a running shard", func(t *testing.T, dir string) map[hashing.Key][]byte {
			b := openSlab(t, dir)
			early := b.reserve(int64(len(v1)), checkOf(v1))
			mustPutBlock(t, b, k, v2)
			if err := b.write(k, early, slices.Clone(v1)); err != nil {
				t.Fatal(err)
			}
			if got, err := readBlock(b, k); err != nil || !bytes.Equal(got, v2) {
				t.Fatalf("the put that took its number first but finished last is served: %d bytes, %v", len(got), err)
			}
			return map[hashing.Key][]byte{k: v2}
		}},
		{"the higher sequence wins after reopen, wherever it lies", func(t *testing.T, dir string) map[hashing.Key][]byte {
			b := openSlab(t, dir)
			mustPutBlock(t, b, k2, v2[:100])
			mustPutBlock(t, b, k, v1)
			b.delete(k2)
			before := slabBytes(t, dir)
			old := slabRecord(t, dir, k)
			mustPutBlock(t, b, k, v2[:200]) // first fit: ahead of the old record
			if rec := slabRecord(t, dir, k); rec.off > old.off {
				t.Fatalf("the new record lies at %d, behind the old one at %d", rec.off, old.off)
			}
			// The free header over the old record never landed.
			image := slabBytes(t, dir)
			copy(image[old.off:old.off+slabHeader], before[old.off:])
			writeSlab(t, dir, image)
			return map[hashing.Key][]byte{k: v2[:200], k2: nil}
		}},
		{"a damaged second part is indexed as damaged", func(t *testing.T, dir string) map[hashing.Key][]byte {
			b := openSlab(t, dir)
			mustPutBlock(t, b, k, v1)
			mustPutBlock(t, b, k2, v2)
			flipByte(t, filepath.Join(dir, slabName), slabRecord(t, dir, k).off+30) // the sequence number
			b = openSlab(t, dir)
			if b.has(k) {
				t.Fatal("has vouches for a record whose header is damaged")
			}
			if _, err := readBlock(b, k); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("a read of the damaged record = %v, want ErrCorrupt", err)
			}
			if !slices.Contains(b.keys(), k) {
				t.Fatal("the damaged record is not indexed")
			}
			mustPutBlock(t, b, k, v1) // a neighbour's copy replaces it
			return map[hashing.Key][]byte{k: v1, k2: v2}
		}},
		{"a damaged first part is skipped and later records are indexed", func(t *testing.T, dir string) map[hashing.Key][]byte {
			b := openSlab(t, dir)
			mustPutBlock(t, b, k, v1)
			mustPutBlock(t, b, k2, v2)
			mustPutBlock(t, b, k3, v1[:10])
			flipByte(t, filepath.Join(dir, slabName), slabRecord(t, dir, k2).off+13) // the key
			return map[hashing.Key][]byte{k: v1, k2: nil, k3: v1[:10]}
		}},
		{"a payload holding a record image is not indexed", func(t *testing.T, dir string) map[hashing.Key][]byte {
			b := openSlab(t, dir)
			image := &extent{len: slabPage, size: 10, seq: 1 << 40, check: checkOf(make([]byte, 10))}
			payload := randomData(3*slabPage, 3)
			for at := slabPage - slabHeader; at < len(payload); at += slabPage {
				b.appendLive(payload[at:at], k2, image)
			}
			mustPutBlock(t, b, k, payload)
			return map[hashing.Key][]byte{k: payload, k2: nil}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			want := row.crash(t, dir)
			for reopen := 0; reopen < 2; reopen++ {
				b := openSlab(t, dir)
				var held []hashing.Key
				for key, data := range want {
					got, err := readBlock(b, key)
					if data == nil {
						if !errors.Is(err, ErrNotFound) {
							t.Fatalf("reopen %d: block %s = %d bytes, %v; want none", reopen, key, len(got), err)
						}
						continue
					}
					held = append(held, key)
					if err != nil || !bytes.Equal(got, data) {
						t.Fatalf("reopen %d: block %s = %d bytes, %v; want the %d written", reopen, key, len(got), err, len(data))
					}
				}
				if keys := b.keys(); len(keys) != len(held) {
					t.Fatalf("reopen %d: indexed %v, want %v", reopen, keys, held)
				}
				// Opening settled the slab: one live record per block held.
				for _, key := range held {
					slabRecord(t, dir, key)
				}
			}
		})
	}
}

// versionOf fills a block of n bytes that says which version of key k it
// is in its first 8 bytes and, in every 4 KiB page, in the rest.
func versionOf(k hashing.Key, v uint64, n int) []byte {
	data := make([]byte, n)
	binary.LittleEndian.PutUint64(data, v)
	for i := 8; i < n; i++ {
		data[i] = byte(uint64(k) + v*31 + uint64(i/slabPage)*7)
	}
	return data
}

// TestSlabReuseUnderConcurrentReads: puts and deletes of a few keys reuse
// each other's extents while readers read them. A reader pins the extent
// it reads, so every read returns one whole version some put wrote and
// fails no CRC; a slab that freed extents without waiting for their pins
// would let a put overwrite a read in flight.
func TestSlabReuseUnderConcurrentReads(t *testing.T) {
	b := openSlab(t, t.TempDir())
	keys := []hashing.Key{1, 2, 3}
	const size, writers, readers, rounds = 16 * slabPage, 3, 4, 300
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
		reads    int
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				k := keys[rng.Intn(len(keys))]
				if rng.Intn(4) == 0 {
					b.delete(k)
					continue
				}
				data := versionOf(k, uint64(w*rounds+i), size)
				if err := b.put(k, data, checkOf(data)); err != nil {
					fail("put: %v", err)
				}
			}
		}(w)
	}
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				k := keys[(r+i)%len(keys)]
				got, err := readBlock(b, k)
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					fail("read of %s: %v", k, err)
					continue
				}
				v := binary.LittleEndian.Uint64(got)
				if !bytes.Equal(got, versionOf(k, v, size)) {
					fail("read of %s returned no whole version (it begins as version %d)", k, v)
				}
				mu.Lock()
				reads++
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	close(done)
	rwg.Wait()
	if len(failures) > 0 {
		t.Fatalf("%d of the reads failed, the first: %s", len(failures), strings.Join(failures[:min(3, len(failures))], "; "))
	}
	if reads == 0 {
		t.Fatal("no read found a block")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, e := range b.index {
		if e.pins != 0 {
			t.Fatalf("block %s is left with %d pins", k, e.pins)
		}
	}
}

// TestSlabStaysWithinLiveBytes: extents are reused in place, so 500 cycles
// of uploading a record-cut file and deleting an older one, at block sizes
// from 1 to 24 KiB, keep blocks.slab within the largest live set's extents
// (its payload bytes, each block's header and the rest of its last page)
// plus a quarter of them and 16 pages for first fit's fragmentation, with no
// compaction. Measured: 495 783 bytes against a peak of 491 520.
func TestSlabStaysWithinLiveBytes(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	svc := soloService(t, dir)
	rng := rand.New(rand.NewSource(58))
	const live = 4
	var line []byte
	var peak, largest int64
	for i := 0; i < 500; i++ {
		var text bytes.Buffer
		for size := 4<<10 + rng.Intn(60<<10); text.Len() < size; {
			line = append(line[:0], bytes.Repeat([]byte{'a' + byte(rng.Intn(26))}, 10+rng.Intn(200))...)
			text.Write(append(line, '\n'))
		}
		blockSize := 1<<10 + rng.Intn(23<<10)
		if _, err := svc.UploadRecords(ctx, fmt.Sprintf("f%03d", i), "u", PermPublic, text.Bytes(), blockSize, '\n'); err != nil {
			t.Fatal(err)
		}
		var extents int64
		backend := svc.Store().backend.(*diskBackend)
		backend.mu.Lock()
		for _, e := range backend.index {
			extents += e.len
		}
		backend.mu.Unlock()
		peak = max(peak, extents)
		info, err := os.Stat(filepath.Join(dir, slabName))
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, info.Size())
		if i >= live {
			if err := svc.Delete(ctx, fmt.Sprintf("f%03d", i-live), "u"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if bound := slabPage + peak + peak/4 + 16*slabPage; largest > bound {
		t.Fatalf("blocks.slab reached %d bytes over 500 cycles; the live extents peaked at %d, bound %d", largest, peak, bound)
	}
	t.Logf("blocks.slab peaked at %d bytes, live extents at %d", largest, peak)
}

// FuzzSlabOpen opens arbitrary bytes as a blocks.slab: never a panic,
// nothing indexed past the end of the file, every indexed record's header
// verifies, and a read returns bytes whose CRC matches or ErrCorrupt.
func FuzzSlabOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		writeSlab(t, dir, data)
		s, err := NewStoreAt(dir)
		if err != nil {
			if !strings.Contains(err.Error(), "no slab header") {
				t.Fatalf("open: %v", err)
			}
			return
		}
		b := s.backend.(*diskBackend)
		end := max(slabPage, (int64(len(data))+slabPage-1)&^(slabPage-1))
		if b.end != end {
			t.Fatalf("the slab grows at %d, want %d", b.end, end)
		}
		for _, free := range b.free {
			if free.off < slabPage || free.off+free.len > end {
				t.Fatalf("free extent %+v of a slab of %d bytes", free, len(data))
			}
		}
		slab := slabBytes(t, dir)
		var total int64
		for k, e := range b.index {
			total += e.size
			held := e.off + slabHeader + e.size // a damaged record holds its first part
			if e.damaged {
				held = e.off + slabPart1
			}
			if e.off < slabPage || e.off+e.len > end || held > int64(len(data)) {
				t.Fatalf("block %s indexed at %+v in a slab of %d bytes", k, e, len(data))
			}
			got, key, kind, ok := b.parseHeader(slab[e.off:min(int64(len(slab)), e.off+slabHeader)])
			// A record whose payload runs past the end of the file is damaged
			// whatever its header says.
			whole := !got.damaged && e.off+slabHeader+got.size <= int64(len(data))
			if !ok || key != k || kind != recLive || got.len != e.len || whole == e.damaged || whole && (got.size != e.size || got.check != e.check) {
				t.Fatalf("block %s is indexed by a header that reads %+v, %s, %q, %v", k, got, key, kind, ok)
			}
			block, err := s.GetBlock(k)
			if err == nil && BlockCRC(block) != e.check.CRC || err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("GetBlock(%s) = %d bytes, %v", k, len(block), err)
			}
		}
		if total > int64(len(data)) {
			t.Fatalf("%d payload bytes indexed in a slab of %d", total, len(data))
		}
	})
}
