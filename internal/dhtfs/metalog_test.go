package dhtfs

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"eclipsemr/internal/hashing"
)

// logMeta is a metadata entry of n blocks with a recognisable size. Its
// digests are SHA-1's, as in every log written while blocks were named by
// their SHA-1 and in the pinned seed of TestMetaLogFormatPinned: the log
// stores the 20 bytes without reading them, so either naming replays.
func logMeta(name string, size int64, blocks int) Metadata {
	m := Metadata{Name: name, Owner: "alice", Perm: PermPublic, Size: size, BlockSize: 256,
		Created: time.Unix(1700000000, 0).UTC()}
	for i := 0; i < blocks; i++ {
		m.BlockKeys = append(m.BlockKeys, hashing.BlockKey(name, i))
		m.BlockSums = append(m.BlockSums, sha1.Sum([]byte{byte(i)}))
	}
	return m
}

// reopen returns the metadata a fresh store finds under dir.
func reopen(t *testing.T, dir string) (*Store, map[string]int64) {
	t.Helper()
	s, err := NewStoreAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[string]int64)
	for _, name := range s.MetaNames() {
		m, err := s.GetMeta(name)
		if err != nil {
			t.Fatal(err)
		}
		sizes[name] = m.Size
	}
	return s, sizes
}

func mustPut(t *testing.T, s *Store, m Metadata) {
	t.Helper()
	if err := s.PutMeta(m); err != nil {
		t.Fatal(err)
	}
}

func mustDelete(t *testing.T, s *Store, name string) {
	t.Helper()
	if ok, err := s.DeleteMeta(name); !ok || err != nil {
		t.Fatalf("DeleteMeta(%s) = %v, %v", name, ok, err)
	}
}

// TestMetaLogReplay: puts, deletes and re-puts come back in order after a
// restart, entry for entry, and nothing but the log is written: the slab
// beside it holds no record.
func TestMetaLogReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir)
	a2 := logMeta("a", 20, 3)
	mustPut(t, s, logMeta("a", 10, 1))
	mustPut(t, s, logMeta("b", 11, 2))
	mustDelete(t, s, "a")
	mustPut(t, s, a2)
	mustPut(t, s, logMeta("c", 12, 1))
	mustDelete(t, s, "c")
	if ok, err := s.DeleteMeta("never"); ok || err != nil {
		t.Fatalf("DeleteMeta of a missing file = %v, %v", ok, err)
	}

	s2, got := reopen(t, dir)
	if want := map[string]int64{"a": 20, "b": 11}; !maps.Equal(got, want) {
		t.Fatalf("after restart the shard holds %v, want %v", got, want)
	}
	if m, _ := s2.GetMeta("a"); !reflect.DeepEqual(m, a2) {
		t.Fatalf("entry a came back as %+v, want %+v", m, a2)
	}
	if s2.metaLog.records != 6 {
		t.Fatalf("replayed %d records, want the 6 written", s2.metaLog.records)
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{slabName, metaLogName}) {
		t.Fatalf("the shard directory holds %v, want only %s and %s", names, slabName, metaLogName)
	}
	if recs := slabRecords(t, dir); len(recs) != 0 {
		t.Fatalf("metadata changes wrote block records: %+v", recs)
	}
	// The restarted store appends behind what it replayed.
	mustDelete(t, s2, "b")
	if _, got := reopen(t, dir); !maps.Equal(got, map[string]int64{"a": 20}) {
		t.Fatalf("after a second restart the shard holds %v", got)
	}
}

// TestMetaLogDamagedTail: a record cut short, with a flipped bit or
// followed by garbage ends the replay without costing the records before
// it, and the next change rewrites the log so nothing lands behind the
// damage.
func TestMetaLogDamagedTail(t *testing.T) {
	damages := map[string]func(log []byte, lastStart int) []byte{
		"torn mid-record":  func(log []byte, last int) []byte { return log[:last+(len(log)-last)/2] },
		"torn mid-header":  func(log []byte, last int) []byte { return log[:last+3] },
		"bit flip in body": func(log []byte, last int) []byte { log[len(log)-2] ^= 0x10; return log },
		"bit flip in crc":  func(log []byte, last int) []byte { log[last+5] ^= 0x01; return log },
		"huge length":      func(log []byte, last int) []byte { log[last+3] = 0x7f; return log },
		"zero length":      func(log []byte, last int) []byte { return append(log[:last], make([]byte, 16)...) },
		"unknown kind": func(log []byte, last int) []byte {
			log = append(log[:last], 0, 0, 0, 0, 0, 0, 0, 0, 9, 'x')
			return sealMetaRecord(log, last)
		},
		"put that does not parse": func(log []byte, last int) []byte {
			log = append(log[:last], 0, 0, 0, 0, 0, 0, 0, 0, metaLogPut, 0xff, 0xff)
			return sealMetaRecord(log, last)
		},
		"put with a digest short": func(log []byte, last int) []byte {
			m := logMeta("last", 4, 4)
			m.BlockSums = m.BlockSums[:3]
			return appendMetaPut(log[:last], m)
		},
	}
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := reopen(t, dir)
			mustPut(t, s, logMeta("kept", 1, 2))
			mustPut(t, s, logMeta("dropped", 2, 1))
			mustDelete(t, s, "dropped")
			mustPut(t, s, logMeta("kept-too", 3, 1))
			path := filepath.Join(dir, metaLogName)
			whole, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mustPut(t, s, logMeta("last", 4, 4)) // the record that gets damaged
			log, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(log, len(whole)), 0o644); err != nil {
				t.Fatal(err)
			}

			want := map[string]int64{"kept": 1, "kept-too": 3}
			s2, got := reopen(t, dir)
			if !maps.Equal(got, want) {
				t.Fatalf("after the damage the shard holds %v, want %v", got, want)
			}
			mustPut(t, s2, logMeta("after", 5, 1))
			want["after"] = 5
			s3, got := reopen(t, dir)
			if !maps.Equal(got, want) {
				t.Fatalf("a change behind the damage was lost: the shard holds %v, want %v", got, want)
			}
			if s3.metaLog.damaged || s3.metaLog.records != len(want) {
				t.Fatalf("the log was not rewritten: damaged=%v, %d records for %d entries",
					s3.metaLog.damaged, s3.metaLog.records, len(want))
			}
		})
	}
}

// TestMetaLogStaysBounded: the log's size follows the live set, not the
// number of changes ever made.
func TestMetaLogStaysBounded(t *testing.T) {
	dir := t.TempDir()
	s, _ := reopen(t, dir)
	want := make(map[string]int64)
	for i := 0; i < 16; i++ {
		m := logMeta(fmt.Sprintf("resident-%02d", i), int64(i), 4)
		mustPut(t, s, m)
		want[m.Name] = m.Size
	}
	record := len(appendMetaPut(nil, logMeta("churn-00000", 1, 4)))
	bound := int64(record * (16 + metaLogMinDead + 2))
	largest := int64(0)
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("churn-%05d", i)
		mustPut(t, s, logMeta(name, 1, 4))
		mustDelete(t, s, name)
		if i%97 == 0 || i == 9999 {
			info, err := os.Stat(filepath.Join(dir, metaLogName))
			if err != nil {
				t.Fatal(err)
			}
			largest = max(largest, info.Size())
		}
	}
	if largest > bound {
		t.Fatalf("the log reached %d bytes over 10000 put/delete cycles, want at most %d (%d records)",
			largest, bound, bound/int64(record))
	}
	if _, got := reopen(t, dir); !maps.Equal(got, want) {
		t.Fatalf("after the churn the shard holds %d entries, want the 16 residents: %v", len(got), got)
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{slabName, metaLogName}) {
		t.Fatalf("rewrites left files behind: %v", names)
	}
}

// TestDiskBackendKeepsFilesNotItsOwn: a shard reopened over a directory
// that holds files it did not write, block files of the file-per-block
// layout among them, serves the block its slab holds and leaves every
// other file where it is.
func TestDiskBackendKeepsFilesNotItsOwn(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := hashing.KeyOfString("whole")
	if err := s.PutBlock(k, []byte("whole block")); err != nil {
		t.Fatal(err)
	}
	foreign := []string{"README.tmp", hashing.KeyOfString("torn").String() + ".blk.tmp", k.String() + ".blk"}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half a blo"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := NewStoreAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s2.GetBlock(k); err != nil || string(got) != "whole block" {
		t.Fatalf("GetBlock = %q, %v", got, err)
	}
	if keys := s2.BlockKeys(); !slices.Equal(keys, []hashing.Key{k}) {
		t.Fatalf("indexed %v, want only %s", keys, k)
	}
	left := dirNames(t, dir)
	want := append(foreign, slabName)
	slices.Sort(want)
	if !slices.Equal(left, want) {
		t.Fatalf("the directory holds %v, want %v", left, want)
	}
}

// TestDiskGetReadsIndexedSize: a read returns exactly the block that was
// put, through overwrites that change its size.
func TestDiskGetReadsIndexedSize(t *testing.T) {
	s, err := NewStoreAt(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := hashing.KeyOfString("resized")
	for _, n := range []int{0, 1, 4096, 17, 1 << 20, 0, 5} {
		want := randomData(n, int64(n))
		if err := s.PutBlock(k, want); err != nil {
			t.Fatal(err)
		}
		got, err := s.GetBlock(k)
		if err != nil || !bytes.Equal(got, want) || cap(got) != n {
			t.Fatalf("GetBlock after a put of %d bytes = %d bytes (cap %d), %v", n, len(got), cap(got), err)
		}
	}
}

// sameMetas compares two metadata maps, timestamps as instants: a zone
// offset no real zone has is not carried through a re-encoding (see
// Metadata.AppendWire).
func sameMetas(a, b map[string]Metadata) bool {
	return maps.EqualFunc(a, b, func(x, y Metadata) bool {
		sameTime := x.Created.Equal(y.Created)
		x.Created, y.Created = time.Time{}, time.Time{}
		return sameTime && reflect.DeepEqual(x, y)
	})
}

// TestMetaLogFormatPinned replays a log written when the format was set
// (the fuzz seed testdata/fuzz/FuzzMetaLogReplay/seed-whole: put a, put
// corpus/part-0007, delete a, put "", put a again): a change to the record
// layout or to Metadata's wire encoding that orphans logs on disk fails
// here.
func TestMetaLogFormatPinned(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzMetaLogReplay", "seed-whole"))
	if err != nil {
		t.Fatal(err)
	}
	quoted, ok := strings.CutPrefix(string(file), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("seed-whole is not a fuzz corpus file: %q", file[:min(len(file), 40)])
	}
	log, err := strconv.Unquote(strings.TrimSuffix(quoted, ")\n"))
	if err != nil {
		t.Fatal(err)
	}
	metas := make(map[string]Metadata)
	records, valid := replayMetaLog([]byte(log), metas)
	want := map[string]Metadata{
		"a":                logMeta("a", 11, 2),
		"corpus/part-0007": logMeta("corpus/part-0007", 1<<10, 4),
		"":                 logMeta("", 0, 0),
	}
	if records != 5 || valid != len(log) || !sameMetas(metas, want) {
		t.Fatalf("the pinned log replays as %d records in %d of %d bytes: %+v", records, valid, len(log), metas)
	}
}

// FuzzMetaLogReplay replays arbitrary bytes as a metadata log: never a
// panic, never more memory than the bytes themselves describe, and the
// prefix it accepts is a log that replays to the same entries and survives
// a rewrite.
func FuzzMetaLogReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		metas := make(map[string]Metadata)
		records, valid := replayMetaLog(data, metas)
		if valid < 0 || valid > len(data) || records*(metaLogHeader+1) > valid || len(metas) > records {
			t.Fatalf("%d bytes replayed as %d records in a prefix of %d holding %d entries", len(data), records, valid, len(metas))
		}
		for name, m := range metas {
			if held := len(m.Name) + len(m.Owner) + 8*len(m.BlockKeys) + hashing.DigestSize*len(m.BlockSums); m.Name != name || held > valid {
				t.Fatalf("entry %q (named %q) holds %d bytes out of a log of %d", name, m.Name, held, valid)
			}
		}
		again := make(map[string]Metadata)
		if r, v := replayMetaLog(data[:valid], again); r != records || v != valid || !sameMetas(again, metas) {
			t.Fatalf("the accepted prefix replays as %d records in %d bytes, was %d in %d", r, v, records, valid)
		}
		var rewritten []byte
		for _, m := range metas {
			rewritten = appendMetaPut(rewritten, m)
		}
		back := make(map[string]Metadata)
		if r, v := replayMetaLog(rewritten, back); r != len(metas) || v != len(rewritten) || !sameMetas(back, metas) {
			t.Fatalf("a rewrite of %d entries replays as %d records, %d of %d bytes", len(metas), r, v, len(rewritten))
		}
	})
}

// BenchmarkStoreMetaChurn is one metadata change pair (a file's PutMeta
// and DeleteMeta) on a disk-backed shard that already holds the named
// number of files. A change appends one record, so ns/op does not grow with
// the resident set; rewriting the whole table per change, it grew linearly.
func BenchmarkStoreMetaChurn(b *testing.B) {
	for _, resident := range []int{16, 1024, 16384} {
		b.Run(fmt.Sprint(resident), func(b *testing.B) {
			s, err := NewStoreAt(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < resident; i++ {
				if err := s.PutMeta(logMeta(fmt.Sprintf("resident-%05d", i), 1<<10, 4)); err != nil {
					b.Fatal(err)
				}
			}
			churn := logMeta("churn", 1<<10, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.PutMeta(churn); err != nil {
					b.Fatal(err)
				}
				if _, err := s.DeleteMeta(churn.Name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
