package dhtfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"eclipsemr/internal/transport"
)

// metaLog persists a disk-backed shard's file metadata as an append-only
// file, metadata.log, in the shard's directory: one record per change, so a
// change costs one write of its own size however many files the shard
// holds. A record is
//
//	length  uint32, little endian: the bytes after this 8-byte header
//	crc     uint32, little endian: CRC-32C of those bytes
//	kind    1 byte: metaLogPut or metaLogDelete
//	payload put: the Metadata in its wire encoding (wire.go);
//	        delete: the file name
//
// and replaying the records in order rebuilds the map (replayMetaLog). The
// first record that is cut short, fails its checksum or does not parse ends
// a replay: a process that dies inside an append leaves exactly one such
// record, at the tail, and losing what follows a damaged record costs
// copies the other replicas still hold. Writes are not fsynced, as the
// blocks beside the log are not.
//
// Records of overwritten or deleted files are dead weight. When they exceed
// both metaLogMinDead and metaLogDeadRatio times the live entries, the next
// change rewrites the log as one put per live entry (write-then-rename, so
// a crash leaves the old log or the new one), which bounds the file by the
// live set and keeps the rewrite's cost a constant share of each change. The
// same rewrite replaces a log whose tail was dropped at open or whose last
// append failed part way, before anything is appended behind the damage.
//
// The Store's mutex guards a metaLog; live is the Store's map with the
// change already applied.
type metaLog struct {
	path    string
	file    *os.File // open for append; nil until the first change
	records int      // records in the file
	damaged bool     // the file does not end in a whole record: rewrite before appending
	buf     []byte   // the record being written
}

const (
	metaLogName      = "metadata.log"
	metaLogHeader    = 8
	metaLogPut       = 1
	metaLogDelete    = 2
	metaLogDeadRatio = 2
	metaLogMinDead   = 256
	// tmpExt names the file a rewrite builds before renaming it into place.
	tmpExt = ".tmp"
)

// appendMetaPut appends a record that stores m.
func appendMetaPut(dst []byte, m Metadata) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, metaLogPut)
	return sealMetaRecord(m.AppendWire(dst), start)
}

// appendMetaDelete appends a record that removes the file called name.
func appendMetaDelete(dst []byte, name string) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, metaLogDelete)
	return sealMetaRecord(append(dst, name...), start)
}

// sealMetaRecord fills in the header of the record that starts at
// dst[start] and runs to the end of dst.
func sealMetaRecord(dst []byte, start int) []byte {
	body := dst[start+metaLogHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], BlockCRC(body))
	return dst
}

// replayMetaLog applies the records of a log to metas, in order, and
// returns how many it applied and the length of the prefix they occupy;
// valid < len(data) means a damaged record ended the replay there. It
// allocates no more than the records it accepts describe, each bounded by
// its own checksummed length.
func replayMetaLog(data []byte, metas map[string]Metadata) (records, valid int) {
	for len(data)-valid >= metaLogHeader+1 {
		n := int(binary.LittleEndian.Uint32(data[valid:]))
		if n < 1 || n > len(data)-valid-metaLogHeader {
			break
		}
		body := data[valid+metaLogHeader : valid+metaLogHeader+n]
		if BlockCRC(body) != binary.LittleEndian.Uint32(data[valid+4:]) {
			break
		}
		switch body[0] {
		case metaLogPut:
			r := transport.NewWireReader(body[1:])
			m := parseMetadata(&r)
			if r.Done() != nil {
				return records, valid
			}
			metas[m.Name] = m
		case metaLogDelete:
			delete(metas, string(body[1:]))
		default:
			return records, valid
		}
		records++
		valid += metaLogHeader + n
	}
	return records, valid
}

// openMetaLog restores the metadata persisted under dir and returns it with
// the log that will record the changes to come.
func openMetaLog(dir string) (map[string]Metadata, *metaLog, error) {
	l := &metaLog{path: filepath.Join(dir, metaLogName)}
	metas := make(map[string]Metadata)
	data, err := os.ReadFile(l.path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("dhtfs: load metadata: %w", err)
	}
	var valid int
	l.records, valid = replayMetaLog(data, metas)
	l.damaged = valid < len(data)
	return metas, l, nil
}

// put records that m was stored.
func (l *metaLog) put(m Metadata, live map[string]Metadata) error {
	l.buf = appendMetaPut(l.buf[:0], m)
	return l.commit(live)
}

// delete records that the file called name was removed.
func (l *metaLog) delete(name string, live map[string]Metadata) error {
	l.buf = appendMetaDelete(l.buf[:0], name)
	return l.commit(live)
}

// commit makes the change whose record is in l.buf durable: by appending
// the record, or by rewriting the log from live when it is due.
func (l *metaLog) commit(live map[string]Metadata) error {
	dead := l.records + 1 - len(live)
	if l.damaged || (dead > metaLogMinDead && dead > metaLogDeadRatio*len(live)) {
		return l.rewrite(live)
	}
	if l.file == nil {
		f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return fmt.Errorf("dhtfs: open metadata log: %w", err)
		}
		l.file = f
	}
	if _, err := l.file.Write(l.buf); err != nil {
		l.damaged = true // possibly written in part
		return fmt.Errorf("dhtfs: append to metadata log: %w", err)
	}
	l.records++
	return nil
}

// rewrite replaces the log with one put per live entry and continues
// appending to the new file. Until a rewrite succeeds the log counts as
// damaged, so the next change tries again.
func (l *metaLog) rewrite(live map[string]Metadata) error {
	l.damaged = true
	var buf []byte
	for _, m := range live {
		buf = appendMetaPut(buf, m)
	}
	tmp := l.path + tmpExt
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("dhtfs: rewrite metadata log: %w", err)
	}
	if _, err = f.Write(buf); err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("dhtfs: rewrite metadata log: %w", err)
	}
	if l.file != nil {
		l.file.Close() // the replaced file: nothing reads it again
	}
	l.file, l.records, l.damaged = f, len(live), false
	return nil
}
