// Package dhtfs implements EclipseMR's decentralized DHT file system
// (§II-A of the paper). Files are partitioned into fixed-size blocks that
// are distributed across servers by block hash key; file metadata (name,
// owner, size, partitioning) lives on the server whose hash-key range
// covers the hash of the file name, so there is no central directory
// service like HDFS's NameNode. Metadata and blocks are replicated on the
// owner's predecessor and successor for fault tolerance, and intermediate
// MapReduce results are persisted here (reducer-side) as appendable
// segments so failed jobs can restart from stored partial work.
package dhtfs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
)

// Perm is a minimal access-permission word for file metadata; the paper's
// metadata records "file name, owner, file size" and read access is
// checked at the metadata owner before a job runs.
type Perm uint8

const (
	// PermPrivate allows access only by the file's owner.
	PermPrivate Perm = iota
	// PermPublic allows access by any user.
	PermPublic
)

// Metadata describes one uploaded file.
type Metadata struct {
	Name      string
	Owner     string
	Perm      Perm
	Size      int64
	BlockSize int
	// BlockKeys holds the ring key of every block, in file order. Block i
	// holds bytes [i*BlockSize, min((i+1)*BlockSize, Size)).
	BlockKeys []hashing.Key
	// BlockSums holds the digest that names every block's version, one
	// per key (hashing.BlockDigest, taken by the writer); reads verify
	// against it and fall back to a replica on mismatch, so a
	// corrupted copy cannot silently reach an application.
	BlockSums []hashing.Digest
	Created   time.Time
}

// Blocks returns the number of blocks in the file.
func (m Metadata) Blocks() int { return len(m.BlockKeys) }

// CanRead reports whether user may read the file.
func (m Metadata) CanRead(user string) bool {
	return m.Perm == PermPublic || m.Owner == user
}

// clone returns m with its own BlockKeys and BlockSums, so a copy kept by
// a Store and a copy held by a caller never share memory.
func (m Metadata) clone() Metadata {
	m.BlockKeys = slices.Clone(m.BlockKeys)
	m.BlockSums = slices.Clone(m.BlockSums)
	return m
}

// ErrNotFound is returned for missing blocks, metadata or segments.
var ErrNotFound = errors.New("dhtfs: not found")

// ErrPermission is returned when the metadata permission check fails.
var ErrPermission = errors.New("dhtfs: permission denied")

// ErrCorrupt is returned for a copy of a block that fails its integrity
// check, and by a read when every reachable replica's does.
var ErrCorrupt = errors.New("dhtfs: block corrupt")

// blockKeys returns the ring keys of a file split into n blocks: the one
// placement rule of the file system. Block i of several lives at
// hashing.BlockKey(name, i), spreading a large file over the ring; the
// only block of a one-block file lives at the file-name key, beside the
// file's metadata, so the two share a replica set and one RPC per replica
// writes, reads or deletes the whole file. Readers never derive keys from
// names: they follow Metadata.BlockKeys.
//
// No two files share a block key. BlockKey hashes name+":"+index, so the
// name key of "data:0" is the key of block 0 of "data": a name that reads
// as another file's block (see namesABlock) keeps its only block at
// BlockKey(name, 0) like any other, which leaves every key that ends in
// ":index" to the one (name, index) it spells and every other key to the
// one-block file of that name.
func blockKeys(name string, n int) []hashing.Key {
	if n == 1 && !namesABlock(name) {
		return []hashing.Key{hashing.KeyOfString(name)}
	}
	keys := make([]hashing.Key, n)
	for i := range keys {
		keys[i] = hashing.BlockKey(name, i)
	}
	return keys
}

// namesABlock reports whether name ends in ":" and decimal digits, the
// form hashing.BlockKey hashes: such a name's key may be a block of the
// file named before the colon.
func namesABlock(name string) bool {
	digits := name[strings.LastIndexByte(name, ':')+1:]
	if len(digits) == 0 || len(digits) == len(name) {
		return false // "x:", or no colon at all
	}
	return strings.Trim(digits, "0123456789") == ""
}

// colocated reports whether the file's only block lives at the file-name
// key, beside this metadata (see blockKeys). A file written before that
// rule, with its only block at BlockKey(name, 0), is not.
func (m Metadata) colocated() bool {
	return len(m.BlockKeys) == 1 && m.BlockKeys[0] == hashing.KeyOfString(m.Name) && !namesABlock(m.Name)
}

// Split partitions data into blockSize chunks and returns the chunks with
// their deterministic ring keys for the given file name.
func Split(name string, data []byte, blockSize int) ([][]byte, []hashing.Key, error) {
	if blockSize <= 0 {
		return nil, nil, fmt.Errorf("dhtfs: block size must be positive, got %d", blockSize)
	}
	var chunks [][]byte
	for i := 0; i*blockSize < len(data) || (i == 0 && len(data) == 0); i++ {
		end := (i + 1) * blockSize
		if end > len(data) {
			end = len(data)
		}
		chunks = append(chunks, data[i*blockSize:end])
	}
	return chunks, blockKeys(name, len(chunks)), nil
}

// SplitRecords partitions data into chunks of at most blockSize bytes,
// cutting only after a delimiter byte so no record straddles a block
// boundary (the role Hadoop's line-oriented input format plays for HDFS
// blocks). A record longer than blockSize is hard-cut. Returned chunks
// carry the same deterministic ring keys as Split.
func SplitRecords(name string, data []byte, blockSize int, delim byte) ([][]byte, []hashing.Key, error) {
	if blockSize <= 0 {
		return nil, nil, fmt.Errorf("dhtfs: block size must be positive, got %d", blockSize)
	}
	var chunks [][]byte
	for offset := 0; offset < len(data) || len(chunks) == 0; {
		end := offset + blockSize
		if end >= len(data) {
			end = len(data)
		} else if cut := lastIndexByte(data[offset:end], delim); cut >= 0 {
			end = offset + cut + 1
		}
		chunks = append(chunks, data[offset:end])
		offset = end
	}
	return chunks, blockKeys(name, len(chunks)), nil
}

func lastIndexByte(b []byte, c byte) int {
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] == c {
			return i
		}
	}
	return -1
}

// Store is one server's local shard of the DHT file system: data blocks,
// file metadata, and intermediate-result segments. It is safe for
// concurrent use. Blocks are held in memory; the paper's disk costs are
// modeled separately by the simulator.
type Store struct {
	backend blockBackend

	mu    sync.RWMutex
	metas map[string]Metadata
	// namespaces holds the intermediate results, by job namespace: the
	// node's oCache (§II-B). A namespace whose every partition here was
	// fetched by a reduce since its last append is finished, and the
	// finished ones share budget bytes; an unfinished one, a map phase
	// still running, is never charged. Over budget, the least recently
	// fetched finished namespace goes whole.
	namespaces map[string]*namespace
	budget     int64 // 0: unbounded
	fetches    uint64
	// evicted hears of every namespace the budget dropped, outside mu.
	evicted func(namespace string)
	// metaLog, when set, persists every metadata change so a restarted
	// disk-backed node recovers both blocks and the files they belong to.
	metaLog *metaLog
}

// namespace is one job namespace's spills at this node, by partition.
type namespace struct {
	parts map[string]*stream
	bytes int64
	// unfetched counts the partitions appended to since a reduce last
	// fetched them; the namespace is finished at 0.
	unfetched int
	lastFetch uint64
}

// stream is one partition's live spills, in arrival order.
type stream struct {
	segs    []segment
	fetched bool
}

// segment is one stored intermediate-result spill. Task/attempt/seq
// identify the producing map-task attempt so re-executions supersede
// their predecessors instead of double-counting.
type segment struct {
	data    []byte
	task    string
	attempt int
	seq     int
}

// TaggedSegment is the exported view of one tracked spill, used to merge
// replicated intermediate data across replicas without duplication.
type TaggedSegment struct {
	Task    string
	Attempt int
	Seq     int
	Data    []byte
}

// NewStore returns an empty in-memory shard.
func NewStore() *Store {
	return &Store{
		backend:    newMemBackend(),
		metas:      make(map[string]Metadata),
		namespaces: make(map[string]*namespace),
	}
}

// NewStoreAt returns a shard whose block payloads and file metadata
// persist under dir; a restarted node recovers both. Intermediate-result
// segments remain in memory — they are transient by design (dropped with
// their job, regenerable by re-running maps).
func NewStoreAt(dir string) (*Store, error) {
	backend, err := newDiskBackend(dir)
	if err != nil {
		return nil, err
	}
	metas, log, err := openMetaLog(dir)
	if err != nil {
		return nil, err
	}
	return &Store{
		backend:    backend,
		metas:      metas,
		namespaces: make(map[string]*namespace),
		metaLog:    log,
	}, nil
}

// PutBlock stores a copy of a block, overwriting any previous content,
// with the digest and CRC-32C it takes here as an upload's writer does; the
// caller keeps data. On a disk-backed shard an IO failure is reported; the
// in-memory backend never fails. It remains for bench/probes.go until the
// [benchmark] PR; the file system writes through Service.Upload.
func (s *Store) PutBlock(k hashing.Key, data []byte) error {
	check := BlockCheck{CRC: BlockCRC(data), Sum: hashing.BlockDigest(data)}
	return s.backend.put(k, slices.Clone(data), check)
}

// pin fetches a block as stored, unchecked, with what is kept beside it
// and a reference the caller releases when done reading: the buffer the
// shard shares with every reader (see blockbuf).
func (s *Store) pin(k hashing.Key) (*blockbuf.Buf, BlockCheck, error) {
	buf, check, ok, err := s.backend.get(k)
	if err != nil {
		return nil, BlockCheck{}, err
	}
	if !ok {
		return nil, BlockCheck{}, fmt.Errorf("%w: block %s", ErrNotFound, k)
	}
	return buf, check, nil
}

// verify checks a copy of a block that crossed a disk or a socket against
// the CRC stored beside the block.
func (c BlockCheck) verify(k hashing.Key, data []byte) error {
	if BlockCRC(data) != c.CRC {
		return fmt.Errorf("%w: block %s fails its CRC", ErrCorrupt, k)
	}
	return nil
}

// onDisk reports whether a block read comes out of a file.
func (s *Store) onDisk() bool {
	_, disk := s.backend.(*diskBackend)
	return disk
}

// GetBlock fetches a block, checked when it came out of a file, as
// read-only bytes of the buffer the shard shares with every reader. The
// reference behind them is never given up, so they stay valid and their
// buffer is never recycled. It remains for bench/probes.go until the
// [benchmark] PR; the file system reads through Service.PinBlock.
func (s *Store) GetBlock(k hashing.Key) ([]byte, error) {
	buf, check, err := s.pin(k)
	if err != nil {
		return nil, err
	}
	if s.onDisk() {
		if err := check.verify(k, buf.Bytes()); err != nil {
			buf.Release()
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// countBuffers has a disk shard count in the given counters the block
// reads that filled a recycled buffer and the ones that made a new one.
// Call before the shard serves reads.
func (s *Store) countBuffers(reused, allocated *metrics.Counter) {
	if disk, ok := s.backend.(*diskBackend); ok {
		disk.reused, disk.allocated = reused, allocated
	}
}

// HasBlock reports block presence without copying.
func (s *Store) HasBlock(k hashing.Key) bool {
	return s.backend.has(k)
}

// DeleteBlock removes a block, reporting whether it existed.
func (s *Store) DeleteBlock(k hashing.Key) bool {
	_, ok := s.backend.delete(k)
	return ok
}

// BlockKeys lists every block key held locally.
func (s *Store) BlockKeys() []hashing.Key {
	return s.backend.keys()
}

// PutMeta stores file metadata. The entry is held in memory whatever
// happens; the error reports a disk-backed shard that could not log it
// (see metaLog), so a restart may not bring it back.
func (s *Store) PutMeta(m Metadata) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metas[m.Name] = m
	if s.metaLog == nil {
		return nil
	}
	return s.metaLog.put(m, s.metas)
}

// GetMeta fetches metadata by file name.
func (s *Store) GetMeta(name string) (Metadata, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.metas[name]
	if !ok {
		return Metadata{}, fmt.Errorf("%w: metadata for %q", ErrNotFound, name)
	}
	return m, nil
}

// DeleteMeta removes metadata, reporting whether it existed; the error is
// PutMeta's.
func (s *Store) DeleteMeta(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.metas[name]; !ok {
		return false, nil
	}
	delete(s.metas, name)
	if s.metaLog == nil {
		return true, nil
	}
	return true, s.metaLog.delete(name, s.metas)
}

// MetaNames lists every file whose metadata is held locally.
func (s *Store) MetaNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.metas))
	for name := range s.metas {
		out = append(out, name)
	}
	return out
}

// SegDisposition reports what AppendTaskSegment did with a spill, so the
// serving layer can log supersedes and ignored stragglers.
type SegDisposition int

const (
	// SegAppended: a new spill was stored.
	SegAppended SegDisposition = iota
	// SegRetransmit: an exact duplicate replaced the stored copy.
	SegRetransmit
	// SegSuperseded: the spill was stored and evicted every spill of the
	// task's earlier attempts.
	SegSuperseded
	// SegStale: a straggler from an already-superseded attempt; ignored.
	SegStale
)

// AppendTaskSegment appends one spill of intermediate results for a job
// partition (the proactive-shuffle write path: mappers push buffered
// results here as they are generated), attributed to one map task
// attempt; seq numbers the task's spills into this partition. The store
// keeps data itself: the caller hands it over and never writes to it
// again (a batch push's entries are views of a request body nobody else
// holds). The attribution makes the write path idempotent under the failure modes a
// lossy network creates:
//
//   - an exact retransmit (same task, attempt, seq) replaces the stored
//     copy instead of appending a duplicate;
//   - a re-executed attempt (higher attempt) supersedes every spill of
//     the task's earlier attempts — a mapper whose success reply was
//     lost and that is re-dispatched cannot double its output;
//   - a stale attempt's stragglers (lower attempt) are ignored.
func (s *Store) AppendTaskSegment(job, partition, task string, attempt, seq int, data []byte) SegDisposition {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns := s.namespaces[job]
	var p *stream
	if ns != nil {
		p = ns.parts[partition]
	}
	maxAttempt := -1
	if p != nil {
		for i := range p.segs {
			if p.segs[i].task == task && p.segs[i].attempt > maxAttempt {
				maxAttempt = p.segs[i].attempt
			}
		}
	}
	if maxAttempt >= 0 && attempt < maxAttempt {
		return SegStale // straggler from a superseded attempt
	}
	if ns == nil {
		ns = &namespace{parts: make(map[string]*stream)}
		s.namespaces[job] = ns
	}
	if p == nil {
		p = &stream{fetched: true}
		ns.parts[partition] = p
	}
	if p.fetched {
		p.fetched = false
		ns.unfetched++
	}
	seg := segment{data: data, task: task, attempt: attempt, seq: seq}
	disp := SegAppended
	if attempt > maxAttempt && maxAttempt >= 0 {
		live := p.segs[:0]
		for _, old := range p.segs {
			if old.task == task {
				ns.bytes -= int64(len(old.data))
				continue
			}
			live = append(live, old)
		}
		p.segs = live
		disp = SegSuperseded
	}
	for i := range p.segs {
		if p.segs[i].task == task && p.segs[i].attempt == attempt && p.segs[i].seq == seq {
			ns.bytes += int64(len(data) - len(p.segs[i].data))
			p.segs[i] = seg // idempotent retransmit
			return SegRetransmit
		}
	}
	p.segs = append(p.segs, seg)
	ns.bytes += int64(len(data))
	return disp
}

// ReadTaggedSegments returns every live spill stored for a job partition
// with its task attribution, in arrival order, and counts the read as a
// reduce's fetch of the partition (see Store.namespaces): it may finish
// the namespace, and then evict others. Data is the stored bytes
// themselves, read-only, capacity clipped: nobody writes to a stored
// spill, so a view stays valid after the spill is superseded, dropped or
// evicted (the collector frees it once the last view goes). A reduce puts
// them in (task, seq) order with MergeTaggedSegments.
func (s *Store) ReadTaggedSegments(job, partition string) []TaggedSegment {
	s.mu.Lock()
	ns := s.namespaces[job]
	if ns == nil {
		s.mu.Unlock()
		return nil
	}
	var out []TaggedSegment
	if p := ns.parts[partition]; p != nil {
		out = make([]TaggedSegment, len(p.segs))
		for i, seg := range p.segs {
			out[i] = TaggedSegment{
				Task:    seg.task,
				Attempt: seg.attempt,
				Seq:     seg.seq,
				Data:    slices.Clip(seg.data),
			}
		}
		if !p.fetched {
			p.fetched = true
			ns.unfetched--
		}
	}
	s.fetches++
	ns.lastFetch = s.fetches
	evicted := s.evict(job)
	s.mu.Unlock()
	for _, name := range evicted {
		s.evicted(name)
	}
	return out
}

// evict drops least recently fetched finished namespaces, never keep,
// until the finished ones fit the budget, and returns their names. Caller
// holds s.mu.
func (s *Store) evict(keep string) []string {
	if s.budget <= 0 {
		return nil
	}
	var out []string
	for over := s.finishedBytes() - s.budget; over > 0; {
		victim := ""
		for name, ns := range s.namespaces {
			if name != keep && ns.unfetched == 0 && (victim == "" || ns.lastFetch < s.namespaces[victim].lastFetch) {
				victim = name
			}
		}
		if victim == "" {
			break // keep alone is over budget: the next fetch elsewhere evicts it
		}
		over -= s.namespaces[victim].bytes
		delete(s.namespaces, victim)
		out = append(out, victim)
	}
	return out
}

// finishedBytes sums the bytes of the finished namespaces. Caller holds
// s.mu.
func (s *Store) finishedBytes() int64 {
	var n int64
	for _, ns := range s.namespaces {
		if ns.unfetched == 0 {
			n += ns.bytes
		}
	}
	return n
}

// setSegmentBudget bounds the bytes of finished namespaces (see
// Store.namespaces); evicted hears the name of each namespace the bound
// drops. Call before the shard serves.
func (s *Store) setSegmentBudget(bytes int64, evicted func(namespace string)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget, s.evicted = bytes, evicted
}

// MergeTaggedSegments turns the spills read from a partition's owner into
// one deduplicated payload list: per task only the newest attempt
// survives, (task, seq) duplicates collapse to one copy, and the result is
// sorted by (task, seq), so it does not depend on the order the spills
// arrived in.
func MergeTaggedSegments(segs []TaggedSegment) [][]byte {
	maxAttempt := make(map[string]int)
	for _, s := range segs {
		if a, ok := maxAttempt[s.Task]; !ok || s.Attempt > a {
			maxAttempt[s.Task] = s.Attempt
		}
	}
	type key struct {
		task string
		seq  int
	}
	best := make(map[key][]byte)
	order := make([]key, 0, len(segs))
	for _, s := range segs {
		if s.Attempt != maxAttempt[s.Task] {
			continue
		}
		k := key{s.Task, s.Seq}
		if _, dup := best[k]; dup {
			continue // identical retransmit on another replica
		}
		best[k] = s.Data
		order = append(order, k)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].task != order[j].task {
			return order[i].task < order[j].task
		}
		return order[i].seq < order[j].seq
	})
	out := make([][]byte, 0, len(order))
	for _, k := range order {
		out = append(out, best[k])
	}
	return out
}

// DropJobSegments deletes all intermediate data of a job namespace
// (invoked when the job's intermediates are dropped, or a publisher
// supersedes them).
func (s *Store) DropJobSegments(job string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.namespaces, job)
}

// Bytes returns the total payload bytes held (blocks + segments).
func (s *Store) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.backend.bytes()
	for _, ns := range s.namespaces {
		n += ns.bytes
	}
	return n
}

// Counts returns the number of blocks, metadata entries and live segment
// streams held. All three are sampled under one critical section, so the
// triple is a consistent snapshot.
func (s *Store) Counts() (blocks, metas, segments int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, ns := range s.namespaces {
		segments += len(ns.parts)
	}
	return len(s.backend.keys()), len(s.metas), segments
}

// FinishedBytes returns the bytes of the finished namespaces, the ones the
// segment budget bounds.
func (s *Store) FinishedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.finishedBytes()
}
