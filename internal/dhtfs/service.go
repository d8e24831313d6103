package dhtfs

import (
	"bytes"
	"context"
	"crypto/sha1"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/trace"
	"eclipsemr/internal/transport"
)

// Message types of the fs.* methods. Every one implements transport.Wire
// (wire.go), so the same compiled encoding crosses the in-process network
// and TCP, and a call to this node itself skips encoding altogether (see
// call).
type (
	// putBlockReq stores one block and what is kept beside it: the replica
	// checks Data against Check.CRC before it stores anything.
	putBlockReq struct {
		Key   hashing.Key
		Check BlockCheck
		Data  []byte
	}
	// getBlockReq names one block: the request of get, has and delete.
	getBlockReq struct {
		Key hashing.Key
	}
	// getBlockResp is a block as its holder stores it, unchecked: the
	// reader checks Data against Check.CRC, disk and wire in one pass.
	getBlockResp struct {
		Check BlockCheck
		Data  []byte
	}
	// hasResp answers hasBlock and hasMeta.
	hasResp struct {
		Has bool
	}
	// getMetaReq names a file and the user asking: the request of getMeta,
	// getFile, deleteFile and hasMeta (which ignores User). putMeta sends a
	// Metadata; getMeta and deleteFile answer with one.
	getMetaReq struct {
		Name string
		User string
	}
	// putFileReq writes a file's metadata and, for a one-block file, the
	// block that lives beside it (see blockKeys): Check and Data are that
	// block as putBlockReq's when Meta is colocated and are unused otherwise.
	putFileReq struct {
		Meta  Metadata
		Check BlockCheck
		Data  []byte
	}
	// getFileResp is a file's metadata plus, when its only block lives
	// beside it and the replica holds it, that block as getBlockResp's.
	getFileResp struct {
		Meta    Metadata
		HasData bool
		Check   BlockCheck
		Data    []byte
		// pinned is the reference behind Data while Data is the buffer of
		// this node's shard: whoever is done with Data releases it.
		pinned *blockbuf.Buf
	}
	// nameReq carries the one string listMeta (a prefix) and
	// dropJobSegments (a job namespace) take.
	nameReq struct {
		Name string
	}
	listMetaResp struct {
		Names []string
	}
	readSegReq struct {
		Job       string
		Partition string
	}
	// segBatchHdr heads a raw-frame batch append: the entries describe how
	// the frame payload splits into per-spill byte ranges (see
	// transport.EncodeFrame), so one RPC carries spills for many
	// partitions and the bulk bytes are copied into the frame verbatim.
	segBatchHdr struct {
		Job     string
		TTL     time.Duration
		Entries []segBatchPart
	}
	segBatchPart struct {
		Partition string
		Task      string
		Attempt   int
		Seq       int
		Len       int
	}
	// rawTaggedHdr heads a raw-frame tagged read reply.
	rawTaggedHdr struct {
		Tags []rawTaggedPart
	}
	rawTaggedPart struct {
		Task    string
		Attempt int
		Seq     int
		Len     int
	}
	empty struct{}
)

// Method names mounted by the cluster node dispatcher.
const (
	MethodPutBlock = "fs.putBlock"
	MethodGetBlock = "fs.getBlock"
	MethodHasBlock = "fs.hasBlock"
	MethodPutMeta  = "fs.putMeta"
	MethodGetMeta  = "fs.getMeta"
	// The *File methods act on a file's metadata and the block co-located
	// with it in one round trip per replica.
	MethodPutFile    = "fs.putFile"
	MethodGetFile    = "fs.getFile"
	MethodDeleteFile = "fs.deleteFile"
	// The *Batch/*Raw methods are the shuffle path: raw-frame bodies
	// (length-prefixed KV bytes behind a small header).
	MethodAppendSegBatch = "fs.appendSegmentBatch"
	MethodReadSegTagRaw  = "fs.readTaggedSegmentsRaw"
	MethodDropSeg        = "fs.dropJobSegments"
	MethodDeleteBlock    = "fs.deleteBlock"
	MethodHasMeta        = "fs.hasMeta"
	MethodListMeta       = "fs.listMeta"
)

// Service is one node's DHT file system endpoint: it serves the fs.*
// methods from its local Store and implements the client-side operations
// (upload, read, re-replication) against the rest of the ring.
type Service struct {
	self     hashing.NodeID
	store    *Store
	net      transport.Network
	ring     func() *hashing.ChordRing
	replicas int
	now      func() time.Time
	reg      *metrics.Registry
	tracer   *trace.Tracer // nil or disabled = no spans
	events   *events.Log   // nil = no events
}

// NewService builds a Service with an in-memory shard. ring supplies the
// current membership view (it changes on joins and failures); replicas is
// the total copy count per object — the paper's predecessor+successor
// scheme is replicas=3.
func NewService(self hashing.NodeID, net transport.Network, ring func() *hashing.ChordRing, replicas int) (*Service, error) {
	return NewServiceWithStore(self, net, ring, replicas, NewStore())
}

// NewServiceWithStore builds a Service over a caller-provided shard
// (e.g. a disk-backed store from NewStoreAt).
func NewServiceWithStore(self hashing.NodeID, net transport.Network, ring func() *hashing.ChordRing, replicas int, store *Store) (*Service, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("dhtfs: replicas must be >= 1, got %d", replicas)
	}
	if ring == nil {
		return nil, errors.New("dhtfs: nil ring source")
	}
	if store == nil {
		return nil, errors.New("dhtfs: nil store")
	}
	reg := metrics.NewRegistry()
	store.countBuffers(reg.Counter("fs.blockbuf.reused"), reg.Counter("fs.blockbuf.allocated"))
	return &Service{
		self:     self,
		store:    store,
		net:      net,
		ring:     ring,
		replicas: replicas,
		now:      time.Now,
		reg:      reg,
	}, nil
}

// Store exposes the local shard (for recovery orchestration and tests).
func (s *Service) Store() *Store { return s.store }

// Now returns the service's current time (overridable via SetClock).
func (s *Service) Now() time.Time { return s.now() }

// Metrics exposes the file system's operational counters plus live
// storage gauges.
func (s *Service) Metrics() *metrics.Registry {
	blocks, metas, segs := s.store.Counts()
	s.reg.Gauge("fs.store.blocks").Set(int64(blocks))
	s.reg.Gauge("fs.store.metas").Set(int64(metas))
	s.reg.Gauge("fs.store.segments").Set(int64(segs))
	s.reg.Gauge("fs.store.bytes").Set(s.store.Bytes())
	return s.reg
}

// SetTracer attaches the node's tracer so block IO and lookups record
// spans (nil is fine: spans become no-ops).
func (s *Service) SetTracer(tr *trace.Tracer) { s.tracer = tr }

// SetEvents attaches the node's structured event log so repair actions
// (read failover, re-replication) land in the flight recorder (nil is
// fine: emissions become no-ops).
func (s *Service) SetEvents(l *events.Log) { s.events = l }

// SetClock overrides the metadata timestamp and segment-TTL time source.
func (s *Service) SetClock(now func() time.Time) {
	s.now = now
	s.store.SetClock(now)
}

// Handle serves one inbound fs.* call: decode, serve, encode. The second
// return value reports whether the method belongs to this service.
func (s *Service) Handle(_ context.Context, method string, body []byte) ([]byte, bool, error) {
	switch method {
	case MethodAppendSegBatch:
		var hdr segBatchHdr
		payload, err := transport.DecodeFrame(body, &hdr)
		if err != nil {
			return nil, true, err
		}
		// The entries are views of the body, which is this handler's to
		// give: the store keeps them as they are.
		entries := make([]SegBatchEntry, len(hdr.Entries))
		off := 0
		for i, e := range hdr.Entries {
			if e.Len < 0 || e.Len > len(payload)-off {
				return nil, true, fmt.Errorf("dhtfs: batch entry %d overruns payload (%d bytes at offset %d of %d)",
					i, e.Len, off, len(payload))
			}
			entries[i] = SegBatchEntry{
				Partition: e.Partition,
				Tag:       SegTag{Task: e.Task, Attempt: e.Attempt, Seq: e.Seq},
				Data:      payload[off : off+e.Len],
			}
			off += e.Len
		}
		s.appendBatch(hdr.Job, hdr.TTL, entries)
		out, err := transport.Encode(empty{})
		return out, true, err
	case MethodGetBlock:
		var req getBlockReq
		if err := transport.Decode(body, &req); err != nil {
			return nil, true, err
		}
		buf, check, err := s.getBlock(req.Key)
		if err != nil {
			return nil, true, err
		}
		out, err := transport.Encode(getBlockResp{Check: check, Data: buf.Bytes()})
		buf.Release() // the reply has its copy
		return out, true, err
	case MethodReadSegTagRaw:
		var req readSegReq
		if err := transport.Decode(body, &req); err != nil {
			return nil, true, err
		}
		tagged := s.store.ReadTaggedSegments(req.Job, req.Partition)
		hdr := rawTaggedHdr{Tags: make([]rawTaggedPart, len(tagged))}
		payload := make([][]byte, len(tagged))
		for i, seg := range tagged {
			hdr.Tags[i] = rawTaggedPart{Task: seg.Task, Attempt: seg.Attempt, Seq: seg.Seq, Len: len(seg.Data)}
			payload[i] = seg.Data
		}
		out, err := transport.EncodeFrame(hdr, payload...)
		return out, true, err
	}
	req, resp := messages(method)
	if req == nil {
		return nil, false, nil
	}
	if err := transport.Decode(body, req); err != nil {
		return nil, true, err
	}
	if err := s.serve(method, req, resp); err != nil {
		return nil, true, err
	}
	out, err := transport.Encode(resp)
	if file, ok := resp.(*getFileResp); ok {
		file.pinned.Release() // the reply has its copy
	}
	return out, true, err
}

// messages returns a fresh request and response for a method serve
// handles, or nils for any other method.
func messages(method string) (req, resp transport.Wire) {
	switch method {
	case MethodPutBlock:
		return new(putBlockReq), new(empty)
	case MethodHasBlock:
		return new(getBlockReq), new(hasResp)
	case MethodDeleteBlock:
		return new(getBlockReq), new(empty)
	case MethodPutMeta:
		return new(Metadata), new(empty)
	case MethodGetMeta:
		return new(getMetaReq), new(Metadata)
	case MethodHasMeta:
		return new(getMetaReq), new(hasResp)
	case MethodPutFile:
		return new(putFileReq), new(empty)
	case MethodGetFile:
		return new(getMetaReq), new(getFileResp)
	case MethodDeleteFile:
		return new(getMetaReq), new(Metadata)
	case MethodListMeta:
		return new(nameReq), new(listMetaResp)
	case MethodDropSeg:
		return new(nameReq), new(empty)
	}
	return nil, nil
}

// serve executes one method against the local shard on decoded messages
// of the types messages returns for it: the middle of Handle, and the
// whole of a call to this node itself. The block bytes a request carries
// are handed over: the Store keeps what it is handed, so the caller (a
// decoded body, or a writer on this node) never writes to them again. A
// Metadata is cloned in both directions, and what the response references
// belongs to the caller.
func (s *Service) serve(method string, req, resp transport.Wire) error {
	switch method {
	case MethodPutBlock:
		req := req.(*putBlockReq)
		return s.putBlock(req.Key, req.Data, req.Check)
	case MethodHasBlock:
		resp.(*hasResp).Has = s.store.HasBlock(req.(*getBlockReq).Key)
	case MethodDeleteBlock:
		s.store.DeleteBlock(req.(*getBlockReq).Key)
	case MethodPutMeta:
		s.putMeta(req.(*Metadata).clone())
	case MethodGetMeta:
		meta, err := s.readableMeta(req.(*getMetaReq))
		if err != nil {
			return err
		}
		*resp.(*Metadata) = meta.clone()
	case MethodHasMeta:
		_, err := s.store.GetMeta(req.(*getMetaReq).Name)
		resp.(*hasResp).Has = err == nil
	case MethodPutFile:
		// Block before metadata, as the client orders a multi-block write:
		// metadata never names a block this replica was not handed.
		req := req.(*putFileReq)
		if req.Meta.colocated() {
			if err := s.putBlock(req.Meta.BlockKeys[0], req.Data, req.Check); err != nil {
				return err
			}
		}
		s.putMeta(req.Meta.clone())
	case MethodGetFile:
		meta, err := s.readableMeta(req.(*getMetaReq))
		if err != nil {
			return err
		}
		file := getFileResp{Meta: meta.clone()}
		if meta.colocated() {
			// A replica missing the block still answers with the metadata;
			// the client finds the block on a neighbor.
			// A replica missing the version the metadata names likewise.
			if buf, check, err := s.pinLocal(meta.BlockKeys[0], meta.BlockSums[0]); err == nil {
				file.HasData, file.Check, file.Data, file.pinned = true, check, buf.Bytes(), buf
			}
		}
		*resp.(*getFileResp) = file
	case MethodDeleteFile:
		// Only the owner may delete, checked here so the client needs no
		// lookup first. Whatever block sits at the name key goes with the
		// metadata: the block of a one-block file, or the stale one a
		// re-upload as several blocks left behind. A name whose key may be
		// another file's block never had one there (see blockKeys).
		req := req.(*getMetaReq)
		meta, err := s.store.GetMeta(req.Name)
		if err != nil {
			return err
		}
		if meta.Owner != req.User {
			return fmt.Errorf("%w: delete %s by %q", ErrPermission, req.Name, req.User)
		}
		s.deleteMeta(req.Name)
		if !namesABlock(req.Name) {
			s.store.DeleteBlock(hashing.KeyOfString(req.Name))
		}
		*resp.(*Metadata) = meta // the store has let go of it
	case MethodListMeta:
		prefix := req.(*nameReq).Name
		var names []string
		for _, name := range s.store.MetaNames() {
			if strings.HasPrefix(name, prefix) {
				names = append(names, name)
			}
		}
		resp.(*listMetaResp).Names = names
	case MethodDropSeg:
		s.store.DropJobSegments(req.(*nameReq).Name)
	default:
		return fmt.Errorf("dhtfs: no local handler for %s", method)
	}
	return nil
}

// putBlock stores one block and what its writer sent with it in the local
// shard, counting it as written. A put that names no digest is refused:
// every stored block carries its writer's. Bytes that fail the CRC were
// damaged on the way here: they are refused and nothing is stored.
func (s *Service) putBlock(k hashing.Key, data []byte, check BlockCheck) error {
	if check.Sum == ([sha1.Size]byte{}) {
		return fmt.Errorf("dhtfs: put of block %s names no digest", k)
	}
	if err := check.verify(k, data); err != nil {
		s.reg.Counter("fs.put.corrupt").Inc()
		s.events.Emit(events.KindFS, "fs.put_corrupt", events.F{Detail: fmt.Sprintf("%s %s", s.self, k)})
		return err
	}
	s.reg.Counter("fs.blocks.written").Inc()
	s.reg.Counter("fs.bytes.written").Add(int64(len(data)))
	return s.store.backend.put(k, data, check)
}

// getBlock fetches one block as stored, unchecked, from the local shard,
// counting it as read. The caller releases the buffer.
func (s *Service) getBlock(k hashing.Key) (*blockbuf.Buf, BlockCheck, error) {
	buf, check, err := s.store.pin(k)
	if err != nil {
		return nil, BlockCheck{}, err
	}
	s.reg.Counter("fs.blocks.read").Inc()
	s.reg.Counter("fs.bytes.read").Add(int64(buf.Len()))
	return buf, check, nil
}

// checkCopy is the one check a copy of block k passes before a reader on
// this node uses it (DESIGN.md "A block's life"). check is what its holder
// keeps beside the block, local says the holder is this node's shard, and
// want is the digest the reader names. Bytes that came off a socket or out
// of a file are checked against the CRC; the bytes a checked put left in
// this node's memory are not (race builds check them as the shard reads
// them, see memBackend.get). The version is told by comparing digests: the
// holder's is its writer's, so no read hashes a block.
func (s *Service) checkCopy(k hashing.Key, data []byte, check BlockCheck, local bool, want [sha1.Size]byte) error {
	if !local || s.store.onDisk() {
		if err := check.verify(k, data); err != nil {
			return err
		}
	}
	if check.Sum != want {
		return fmt.Errorf("%w: block %s is another version", ErrCorrupt, k)
	}
	return nil
}

// pinLocal fetches this node's own copy of a block, checked (see
// checkCopy), in the buffer its shard shares with every reader.
func (s *Service) pinLocal(k hashing.Key, want [sha1.Size]byte) (*blockbuf.Buf, BlockCheck, error) {
	buf, check, err := s.getBlock(k)
	if err != nil {
		return nil, BlockCheck{}, err
	}
	if err = s.checkCopy(k, buf.Bytes(), check, true, want); err != nil {
		buf.Release()
		return nil, BlockCheck{}, err
	}
	return buf, check, nil
}

// putMeta stores metadata in the local shard. A shard that cannot log the
// change to its disk still serves it from memory, and the other replicas
// hold it too, so the write stands; the failure is counted.
func (s *Service) putMeta(m Metadata) {
	if err := s.store.PutMeta(m); err != nil {
		s.reg.Counter("fs.meta.persist_errors").Inc()
	}
}

// deleteMeta removes metadata from the local shard, like putMeta.
func (s *Service) deleteMeta(name string) {
	if _, err := s.store.DeleteMeta(name); err != nil {
		s.reg.Counter("fs.meta.persist_errors").Inc()
	}
}

// readableMeta returns the local metadata of the file req names if
// req.User may read it. The paper's read path checks access permission at
// the metadata owner before revealing partitioning information.
func (s *Service) readableMeta(req *getMetaReq) (Metadata, error) {
	meta, err := s.store.GetMeta(req.Name)
	if err != nil {
		return Metadata{}, err
	}
	if !meta.CanRead(req.User) {
		return Metadata{}, fmt.Errorf("%w: %s by %q", ErrPermission, req.Name, req.User)
	}
	return meta, nil
}

// appendBatch stores the spills of one batch push, each with the
// semantics of Store.AppendTaskSegment.
func (s *Service) appendBatch(job string, ttl time.Duration, entries []SegBatchEntry) {
	for _, e := range entries {
		s.reg.Counter("fs.segments.appended").Inc()
		s.reg.Counter("fs.segments.bytes").Add(int64(len(e.Data)))
		disp := s.store.AppendTaskSegment(job, e.Partition, e.Tag.Task, e.Tag.Attempt, e.Tag.Seq, e.Data, ttl)
		s.noteSegDisposition(disp, job, e.Tag.Task, e.Tag.Attempt)
	}
	s.reg.Counter("fs.segments.batches").Inc()
}

// noteSegDisposition records non-trivial spill-append outcomes in the
// flight recorder: a higher attempt evicting a task's earlier spills, or
// a stale straggler being ignored. Plain appends and idempotent
// retransmits are the common case and stay silent.
func (s *Service) noteSegDisposition(disp SegDisposition, job, task string, attempt int) {
	switch disp {
	case SegSuperseded:
		s.events.Emit(events.KindShuffle, "shuffle.supersede", events.F{Job: job, Task: task, Attempt: attempt})
	case SegStale:
		s.events.Emit(events.KindShuffle, "shuffle.stale", events.F{Job: job, Task: task, Attempt: attempt})
	}
}

// request is one fs.* call bound for one or more nodes: every replica of
// an object is sent the same message, so its encoding is made on the first
// remote send and shared by the rest.
type request struct {
	method string
	msg    transport.Wire
	body   []byte
}

// send delivers r to a node. When the destination is this node the
// decoded messages go straight to serve: a local replica costs no
// encoding, no copy and no hop. A nil resp discards the (empty) reply.
func (s *Service) send(ctx context.Context, to hashing.NodeID, r *request, resp transport.Wire) error {
	if resp == nil {
		resp = &empty{}
	}
	if to == s.self {
		return s.serve(r.method, r.msg, resp)
	}
	if r.body == nil {
		body, err := transport.Encode(r.msg)
		if err != nil {
			return err
		}
		r.body = body
	}
	out, err := s.net.Call(ctx, to, r.method, r.body)
	if err != nil {
		return err
	}
	return transport.Decode(out, resp)
}

// call invokes an fs.* method on a single node (see send).
func (s *Service) call(ctx context.Context, to hashing.NodeID, method string, req, resp transport.Wire) error {
	return s.send(ctx, to, &request{method: method, msg: req}, resp)
}

// replicaSet returns the nodes that should hold key k under the current
// membership.
func (s *Service) replicaSet(k hashing.Key) ([]hashing.NodeID, error) {
	return s.ring().ReplicaSet(k, s.replicas)
}

// readOrder returns the replica set of key k in the order a read asks it:
// this node first when it is a member, since its own copy costs no message,
// then the rest in ring order. Every copy passes the same checks wherever
// it comes from, so which replica answers changes the cost of a read and
// nothing else.
func (s *Service) readOrder(k hashing.Key) ([]hashing.NodeID, error) {
	targets, err := s.replicaSet(k)
	if i := slices.Index(targets, s.self); i > 0 {
		copy(targets[1:i+1], targets[:i])
		targets[0] = s.self
	}
	return targets, err
}

// Upload splits a file into blocks, distributes the blocks (and replicas)
// across the ring by hash key, and stores the metadata at the file-name
// owner (and replicas). It returns the stored metadata. Upload takes the
// bytes: a memory shard on this node keeps views of data, so the caller
// must never write to it again (cluster.Cluster's Upload copies a user's
// slice first).
func (s *Service) Upload(ctx context.Context, name, owner string, perm Perm, data []byte, blockSize int) (Metadata, error) {
	chunks, keys, err := Split(name, data, blockSize)
	if err != nil {
		return Metadata{}, err
	}
	return s.storeFile(ctx, name, owner, perm, data, blockSize, chunks, keys)
}

// UploadRecords is Upload with record-aligned block boundaries: blocks are
// cut only after delim so line-oriented map tasks never see a torn record.
// It takes the bytes as Upload does.
func (s *Service) UploadRecords(ctx context.Context, name, owner string, perm Perm, data []byte, blockSize int, delim byte) (Metadata, error) {
	chunks, keys, err := SplitRecords(name, data, blockSize, delim)
	if err != nil {
		return Metadata{}, err
	}
	return s.storeFile(ctx, name, owner, perm, data, blockSize, chunks, keys)
}

// storeFile distributes pre-split chunks and their metadata: blocks first
// and metadata last, or a block that lives beside its metadata as one
// message holding both.
func (s *Service) storeFile(ctx context.Context, name, owner string, perm Perm, data []byte, blockSize int, chunks [][]byte, keys []hashing.Key) (Metadata, error) {
	// The one pass a block's writer makes over it: the SHA-1 that names
	// this version wherever it is stored or cached, and the CRC-32C every
	// later copy is checked against.
	sums := make([][sha1.Size]byte, len(chunks))
	crcs := make([]uint32, len(chunks))
	for i, chunk := range chunks {
		sums[i], crcs[i] = SumBlock(chunk), BlockCRC(chunk)
	}
	file := &putFileReq{Meta: Metadata{
		Name:      name,
		Owner:     owner,
		Perm:      perm,
		Size:      int64(len(data)),
		BlockSize: blockSize,
		BlockKeys: keys,
		BlockSums: sums,
		Created:   s.now(),
	}}
	putFile := s.putAll
	if file.Meta.colocated() {
		file.Check, file.Data = BlockCheck{CRC: crcs[0], Sum: sums[0]}, chunks[0]
		putFile = s.writeBlock
	} else {
		for i, chunk := range chunks {
			req := &putBlockReq{Key: keys[i], Check: BlockCheck{CRC: crcs[i], Sum: sums[i]}, Data: chunk}
			if err := s.writeBlock(ctx, keys[i], MethodPutBlock, req, fmt.Sprintf("block %d", i)); err != nil {
				return Metadata{}, err
			}
		}
	}
	if err := putFile(ctx, hashing.KeyOfString(name), MethodPutFile, file, "metadata"); err != nil {
		return Metadata{}, err
	}
	return file.Meta, nil
}

// writeBlock is putAll for a message that carries a block, traced and
// timed as one block write.
func (s *Service) writeBlock(ctx context.Context, k hashing.Key, method string, msg transport.Wire, what string) error {
	ctx, sp := s.tracer.StartSpan(ctx, "fs.write_block")
	defer sp.End()
	defer s.reg.Histogram("fs.write_block_ns").Start().Stop()
	return s.putAll(ctx, k, method, msg, what)
}

// putAll stores one object on every replica of key k. A replica target
// that is unreachable (crashed but not yet evicted from the ring) is
// skipped as long as at least one copy lands; re-replication restores the
// invariant once the membership settles.
func (s *Service) putAll(ctx context.Context, k hashing.Key, method string, msg transport.Wire, what string) error {
	targets, err := s.replicaSet(k)
	if err != nil {
		return err
	}
	req := &request{method: method, msg: msg}
	stored := 0
	var lastErr error
	for _, t := range targets {
		if err := s.send(ctx, t, req, nil); err != nil {
			if errors.Is(err, transport.ErrUnreachable) {
				s.reg.Counter("fs.store.skipped").Inc()
				lastErr = err
				continue
			}
			return fmt.Errorf("dhtfs: store %s on %s: %w", what, t, err)
		}
		stored++
	}
	if stored == 0 {
		return fmt.Errorf("dhtfs: store %s: no replica reachable: %w", what, lastErr)
	}
	return nil
}

// Lookup fetches a file's metadata from its metadata owner, checking the
// user's read permission there, and falling back to replicas if the owner
// is unreachable.
func (s *Service) Lookup(ctx context.Context, name, user string) (Metadata, error) {
	var meta Metadata
	err := s.lookup(ctx, name, user, MethodGetMeta, &meta)
	return meta, err
}

// lookup asks the metadata replicas of a file, in read order, for the reply
// of getMeta or getFile, stopping at the first that answers.
func (s *Service) lookup(ctx context.Context, name, user, method string, resp transport.Wire) error {
	ctx, sp := s.tracer.StartSpan(ctx, "fs.lookup")
	defer sp.End()
	sp.Annotate("file", name)
	defer s.reg.Histogram("fs.lookup_ns").Start().Stop()
	targets, err := s.readOrder(hashing.KeyOfString(name))
	if err != nil {
		return err
	}
	req := &request{method: method, msg: &getMetaReq{Name: name, User: user}}
	var lastErr error
	for _, t := range targets {
		// A cancelled caller must not keep racing down the replica list;
		// each further probe is a full retry-with-backoff round.
		if ctx.Err() != nil {
			return fmt.Errorf("dhtfs: lookup %q: %w", name, ctx.Err())
		}
		err := s.send(ctx, t, req, resp)
		if err == nil {
			return nil
		}
		lastErr = err
		if errors.Is(err, transport.ErrUnreachable) || transport.IsTransient(err) {
			s.reg.Counter("fs.lookup.failover").Inc()
			continue // ask the next replica
		}
		if t == s.self && IsNotFound(err) {
			// This shard's miss cost no message and may be its own (a copy
			// that has yet to reach a new replica): a neighbour decides.
			continue
		}
		// Application-level failure (missing or forbidden): replicas hold
		// the same answer, so report it immediately.
		return err
	}
	return fmt.Errorf("dhtfs: lookup %q: %w", name, lastErr)
}

// PinBlock is the file system's one block read. It fetches block k, whose
// SHA-1 is sum (from the file's metadata), in a buffer the caller releases
// when done reading, and says whether the copy came from another node. The
// replicas are asked directly in read order (zero-hop, §II-A: every node
// holds the full membership view), passing over those that are unreachable
// or miss the block. Every copy passes checkCopy, this node's own included:
// one that is damaged or holds another version than sum names is counted
// and passed over, so a corrupted replica is healed by reading its
// neighbor's.
func (s *Service) PinBlock(ctx context.Context, k hashing.Key, sum [sha1.Size]byte) (*blockbuf.Buf, bool, error) {
	ctx, sp := s.tracer.StartSpan(ctx, "fs.read_block")
	defer sp.End()
	defer s.reg.Histogram("fs.read_block_ns").Start().Stop()
	targets, err := s.readOrder(k)
	if err != nil {
		return nil, false, err
	}
	sawCorrupt := false
	var lastErr error
	for i, t := range targets {
		// Stop the replica walk as soon as the caller cancels: the
		// remaining probes would each burn a retry-with-backoff round
		// against servers whose answer nobody is waiting for.
		if ctx.Err() != nil {
			return nil, false, fmt.Errorf("dhtfs: read block %s: %w", k, ctx.Err())
		}
		buf, err := s.pinReplica(ctx, t, k, sum)
		if errors.Is(err, ErrCorrupt) {
			sawCorrupt = true
			s.noteCorrupt(t)
			continue
		}
		if err != nil {
			lastErr = err
			continue
		}
		if i > 0 {
			s.reg.Counter("fs.read.failover").Inc()
			sp.Annotate("failover", string(t))
			s.events.Emit(events.KindFS, "fs.read_failover", events.F{Detail: string(t)})
		}
		return buf, t != s.self, nil
	}
	if sawCorrupt {
		return nil, false, fmt.Errorf("%w: %s on every reachable replica", ErrCorrupt, k)
	}
	return nil, false, fmt.Errorf("dhtfs: read block %s: %w", k, lastErr)
}

// noteCorrupt records that replica t's copy of a block failed its check.
func (s *Service) noteCorrupt(t hashing.NodeID) {
	s.reg.Counter("fs.read.corrupt").Inc()
	s.events.Emit(events.KindFS, "fs.read_corrupt", events.F{Detail: string(t)})
}

// pinReplica fetches node t's copy of a block, checked (see checkCopy):
// this node's own is the buffer its shard shares with every reader, and
// costs no message; another node's arrives as a reply body that is nobody
// else's, so the last release recycles it.
func (s *Service) pinReplica(ctx context.Context, t hashing.NodeID, k hashing.Key, want [sha1.Size]byte) (*blockbuf.Buf, error) {
	if t == s.self {
		buf, _, err := s.pinLocal(k, want)
		return buf, err
	}
	var resp getBlockResp
	if err := s.call(ctx, t, MethodGetBlock, &getBlockReq{Key: k}, &resp); err != nil {
		return nil, err
	}
	if err := s.checkCopy(k, resp.Data, resp.Check, false, want); err != nil {
		return nil, err
	}
	return blockbuf.Adopt(resp.Data), nil
}

// ReadFile fetches metadata and then all blocks, reassembling the file.
// Blocks are checked against the metadata digests. Each block is
// copied into the result and its buffer given back, so a client's reads
// feed the free list the next disk reads draw from. The block of a
// one-block file arrives with the metadata; when the answering replica
// lacks it or the copy fails the check, the block is read like any other.
func (s *Service) ReadFile(ctx context.Context, name, user string) ([]byte, error) {
	var file getFileResp
	if err := s.lookup(ctx, name, user, MethodGetFile, &file); err != nil {
		return nil, err
	}
	defer file.pinned.Release()
	meta := file.Meta
	out := make([]byte, 0, meta.Size)
	for i, k := range meta.BlockKeys {
		if i == 0 && file.HasData && s.verifyInline(ctx, &file) {
			out = append(out, file.Data...)
			continue
		}
		buf, _, err := s.PinBlock(ctx, k, meta.BlockSums[i])
		if err != nil {
			return nil, fmt.Errorf("dhtfs: file %q block %d: %w", name, i, err)
		}
		out = append(out, buf.Bytes()...)
		buf.Release()
	}
	if int64(len(out)) != meta.Size {
		return nil, fmt.Errorf("dhtfs: file %q reassembled to %d bytes, metadata says %d",
			name, len(out), meta.Size)
	}
	return out, nil
}

// verifyInline checks the block that came with a file's metadata like one
// that came off a socket, which it did unless this node answered, traced
// and timed as the block read it replaces.
func (s *Service) verifyInline(ctx context.Context, file *getFileResp) bool {
	_, sp := s.tracer.StartSpan(ctx, "fs.read_block")
	defer sp.End()
	defer s.reg.Histogram("fs.read_block_ns").Start().Stop()
	return s.checkCopy(file.Meta.BlockKeys[0], file.Data, file.Check, false, file.Meta.BlockSums[0]) == nil
}

// SegTag attributes a spill to one map-task attempt (see
// Store.AppendTaskSegment).
type SegTag struct {
	Task    string
	Attempt int
	Seq     int
}

// SegBatchEntry is one spill in a coalesced batch push: the partition it
// lands in, its task attribution, and the encoded KV bytes.
type SegBatchEntry struct {
	Partition string
	Tag       SegTag
	Data      []byte
}

// PushTaggedSegmentBatch delivers many spills — possibly for different
// partitions — to one node in a single raw-frame RPC (the proactive-
// shuffle write). Each entry lands with the semantics of
// Store.AppendTaskSegment (idempotent per (task, attempt, seq)), so a
// retried batch is safe. A positive ttl invalidates the data after that
// duration. The caller keeps the entries' bytes: a push to this node
// itself stores one copy of them, as a remote one stores the body it
// received.
func (s *Service) PushTaggedSegmentBatch(ctx context.Context, to hashing.NodeID, job string, entries []SegBatchEntry, ttl time.Duration) error {
	if to == s.self {
		spills := make([][]byte, len(entries))
		for i, e := range entries {
			spills[i] = e.Data
		}
		body := bytes.Join(spills, nil) // not cleared before it is filled
		kept := slices.Clone(entries)
		off := 0
		for i := range kept {
			n := len(kept[i].Data)
			kept[i].Data = body[off : off+n : off+n]
			off += n
		}
		s.appendBatch(job, ttl, kept)
		return nil
	}
	hdr := segBatchHdr{Job: job, TTL: ttl, Entries: make([]segBatchPart, len(entries))}
	payload := make([][]byte, len(entries))
	for i, e := range entries {
		hdr.Entries[i] = segBatchPart{
			Partition: e.Partition,
			Task:      e.Tag.Task, Attempt: e.Tag.Attempt, Seq: e.Tag.Seq,
			Len: len(e.Data),
		}
		payload[i] = e.Data
	}
	body, err := transport.EncodeFrame(hdr, payload...)
	if err != nil {
		return err
	}
	_, err = s.net.Call(ctx, to, MethodAppendSegBatch, body)
	return err
}

// FetchTaggedSegments reads every spill of a job partition, with its task
// attribution, from the given node: over the raw-frame path, or straight
// from the local shard when that node is this one, as read-only views of
// the stored spills (see Store.ReadTaggedSegments).
func (s *Service) FetchTaggedSegments(ctx context.Context, from hashing.NodeID, job, partition string) ([]TaggedSegment, error) {
	if from == s.self {
		return s.store.ReadTaggedSegments(job, partition), nil
	}
	req, err := transport.Encode(readSegReq{Job: job, Partition: partition})
	if err != nil {
		return nil, err
	}
	body, err := s.net.Call(ctx, from, MethodReadSegTagRaw, req)
	if err != nil {
		return nil, err
	}
	var hdr rawTaggedHdr
	payload, err := transport.DecodeFrame(body, &hdr)
	if err != nil {
		return nil, err
	}
	// The payload is cut by the header's lengths, each checked against the
	// bytes that remain: they come off the wire.
	out := make([]TaggedSegment, len(hdr.Tags))
	off := 0
	for i, tag := range hdr.Tags {
		n := tag.Len
		if n < 0 || n > len(payload)-off {
			return nil, fmt.Errorf("dhtfs: segment %d overruns reply payload (%d bytes at offset %d of %d)",
				i, n, off, len(payload))
		}
		out[i] = TaggedSegment{Task: tag.Task, Attempt: tag.Attempt, Seq: tag.Seq, Data: payload[off : off+n : off+n]}
		off += n
	}
	return out, nil
}

// ListPrefix returns the names of all metadata entries with the given
// prefix, unioned across every reachable ring member (metadata is placed
// by file-name hash, so a prefix scan has no single owner). Unreachable
// members are tolerated as long as at least one answers. Sorted, deduped.
func (s *Service) ListPrefix(ctx context.Context, prefix string) ([]string, error) {
	seen := make(map[string]bool)
	reached := 0
	var lastErr error
	req := &request{method: MethodListMeta, msg: &nameReq{Name: prefix}}
	for _, id := range s.ring().Members() {
		// Like the replica walks: no further probes for a caller that left.
		if ctx.Err() != nil {
			return nil, fmt.Errorf("dhtfs: list %q: %w", prefix, ctx.Err())
		}
		var resp listMetaResp
		if err := s.send(ctx, id, req, &resp); err != nil {
			lastErr = err
			continue
		}
		reached++
		for _, name := range resp.Names {
			seen[name] = true
		}
	}
	if reached == 0 {
		return nil, fmt.Errorf("dhtfs: list %q: no member reachable: %w", prefix, lastErr)
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// DropJob removes a job's intermediate data across the whole ring, best
// effort: it stops early only when the caller cancels.
func (s *Service) DropJob(ctx context.Context, job string) {
	req := &request{method: MethodDropSeg, msg: &nameReq{Name: job}}
	for _, id := range s.ring().Members() {
		if ctx.Err() != nil {
			return
		}
		_ = s.send(ctx, id, req, nil) // best effort
	}
}

// Delete removes a file: its metadata and blocks are deleted from every
// replica. Only the file's owner may delete it, which each metadata
// replica checks before it lets go of its copy and of the block stored
// beside it; the metadata the first of them returns names the blocks
// stored elsewhere. Unreachable replicas are tolerated (re-replication
// after their recovery is driven off live copies, which no longer exist,
// so the delete is effective). A caller that cancels stops the metadata
// wave between replicas, and a retry finds the copies that are left; once
// the wave is through nothing else names the remaining blocks, so their
// deletes go out whether or not the caller still waits.
func (s *Service) Delete(ctx context.Context, name, user string) error {
	nameKey := hashing.KeyOfString(name)
	targets, err := s.replicaSet(nameKey)
	if err != nil {
		return err
	}
	req := &request{method: MethodDeleteFile, msg: &getMetaReq{Name: name, User: user}}
	var meta *Metadata
	var lastErr error
	for _, t := range targets {
		if ctx.Err() != nil {
			return fmt.Errorf("dhtfs: delete %q: %w", name, ctx.Err())
		}
		var removed Metadata
		err := s.send(ctx, t, req, &removed)
		switch {
		case err == nil:
			if meta == nil {
				meta = &removed
			}
		case IsPermission(err):
			return err // replicas hold the same answer
		default:
			lastErr = err // unreachable, or this replica never had a copy
		}
	}
	if meta == nil {
		return fmt.Errorf("dhtfs: delete %q: %w", name, lastErr)
	}
	if meta.colocated() {
		return nil // the block went with the metadata
	}
	ctx = context.WithoutCancel(ctx)
	var sweepErr error
	for _, k := range meta.BlockKeys {
		targets, err := s.replicaSet(k)
		if err != nil {
			sweepErr = err
			continue
		}
		req := &request{method: MethodDeleteBlock, msg: &getBlockReq{Key: k}}
		for _, t := range targets {
			_ = s.send(ctx, t, req, nil) // best effort
		}
	}
	return sweepErr
}

// ReReplicate runs after a membership change: for every block and
// metadata entry held locally, it ensures all current replica-set members
// have a copy, and drops objects this node no longer replicates. It
// returns the number of objects pushed. This is how a predecessor or
// successor "takes over the faulty server" using its replicated data.
func (s *Service) ReReplicate(ctx context.Context) (pushed int, err error) {
	defer func() {
		if pushed > 0 || err != nil {
			detail := fmt.Sprintf("pushed=%d", pushed)
			if err != nil {
				detail += " err=" + err.Error()
			}
			s.events.Emit(events.KindFS, "fs.replicate", events.F{Detail: detail})
		}
	}()
	for _, k := range s.store.BlockKeys() {
		targets, rerr := s.replicaSet(k)
		if rerr != nil {
			return pushed, rerr
		}
		mine := slices.Contains(targets, s.self)
		for _, t := range targets {
			if t == s.self {
				continue
			}
			var has hasResp
			if cerr := s.call(ctx, t, MethodHasBlock, &getBlockReq{Key: k}, &has); cerr != nil {
				err = cerr
				continue
			}
			if has.Has {
				continue
			}
			// This node's copy goes out checked and with what is kept beside
			// it, so the new holder checks it in turn and knows its digest. A
			// damaged copy is not spread: a neighbour's fills the gap.
			buf, check, gerr := s.store.pin(k)
			if gerr == nil {
				if gerr = s.checkCopy(k, buf.Bytes(), check, true, check.Sum); gerr != nil {
					buf.Release()
				}
			}
			if errors.Is(gerr, ErrCorrupt) {
				s.noteCorrupt(s.self)
				break
			}
			if gerr != nil {
				continue // raced with deletion
			}
			cerr := s.call(ctx, t, MethodPutBlock, &putBlockReq{Key: k, Check: check, Data: buf.Bytes()}, nil)
			buf.Release() // the request is encoded and the reply is in
			if cerr != nil {
				err = cerr
				continue
			}
			pushed++
		}
		if !mine {
			s.store.DeleteBlock(k)
		}
	}
	for _, name := range s.store.MetaNames() {
		targets, rerr := s.replicaSet(hashing.KeyOfString(name))
		if rerr != nil {
			return pushed, rerr
		}
		meta, gerr := s.store.GetMeta(name)
		if gerr != nil {
			continue
		}
		mine := false
		for _, t := range targets {
			if t == s.self {
				mine = true
				continue
			}
			// Idempotence: only restore missing copies (matching the block
			// path); full-copy updates propagate at write time via Upload.
			var has hasResp
			if cerr := s.call(ctx, t, MethodHasMeta, &getMetaReq{Name: name}, &has); cerr != nil {
				err = cerr
				continue
			}
			if has.Has {
				continue
			}
			if cerr := s.call(ctx, t, MethodPutMeta, &meta, nil); cerr != nil {
				err = cerr
				continue
			}
			pushed++
		}
		if !mine {
			s.deleteMeta(name)
		}
	}
	return pushed, err
}
