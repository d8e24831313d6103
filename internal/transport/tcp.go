package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/trace"
)

// TCP is a Network over real sockets. Node IDs are resolved through a
// static address registry supplied by the deployer (cmd/eclipse-node
// reads it from a hosts file). One multiplexed connection is maintained
// per destination; concurrent calls are matched to responses by request
// ID, and inbound requests are served on their own goroutines so nodes
// can call each other re-entrantly.
//
// Wire format, all integers big-endian:
//
//	request v1:  u64 reqID | u16 methodLen | method | u32 bodyLen | body
//	request v2:  u64 reqID | u16 methodLen|0x8000 | method
//	             | u16 hdrLen | hdr | u32 bodyLen | body
//	response:    u64 reqID | u8 status(0 ok, 1 err) | u32 len | payload
//
// The high bit of methodLen versions the request frame: v2 inserts a
// small envelope header (today: the trace.SpanContext) between method
// and body. Writers emit v1 whenever the header would be empty — an
// untraced new node is byte-identical to an old one — and readers accept
// both. (The framing is stable across versions; the message bodies are
// not — see DESIGN.md "Wire format".)
//
// Each connection is read through one bufio.Reader, so a small request
// or reply costs one read syscall instead of one per field; a body is
// always read into its own exactly-sized allocation, which the handler
// (or the caller, for a reply) owns from then on. Frames are written as
// header + body in one vectored write: a body is never copied into a
// frame buffer.
type TCP struct {
	mu       sync.Mutex
	registry map[hashing.NodeID]string // node -> host:port
	conns    map[hashing.NodeID]*tcpConn
	servers  map[hashing.NodeID]net.Listener
	accepted map[hashing.NodeID]map[net.Conn]struct{}
	timeout  time.Duration
	closed   bool
	wg       sync.WaitGroup
}

// NewTCP builds a TCP network over the given node->address registry.
// timeout bounds each call (zero means no timeout).
func NewTCP(registry map[hashing.NodeID]string, timeout time.Duration) *TCP {
	reg := make(map[hashing.NodeID]string, len(registry))
	for id, addr := range registry {
		reg[id] = addr
	}
	return &TCP{
		registry: reg,
		conns:    make(map[hashing.NodeID]*tcpConn),
		servers:  make(map[hashing.NodeID]net.Listener),
		accepted: make(map[hashing.NodeID]map[net.Conn]struct{}),
		timeout:  timeout,
	}
}

// Register adds or updates a node address.
func (t *TCP) Register(id hashing.NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.registry[id] = addr
}

// Addr returns the bound listen address for a node started with Listen,
// useful when listening on port 0.
func (t *TCP) Addr(id hashing.NodeID) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ln, ok := t.servers[id]
	if !ok {
		return "", false
	}
	return ln.Addr().String(), true
}

// Listen binds the node's registered address and serves inbound calls
// with h. If the registered address has port 0 the actual bound address
// replaces it in the registry.
func (t *TCP) Listen(id hashing.NodeID, h Handler) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errors.New("transport: network closed")
	}
	addr, ok := t.registry[id]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("transport: node %s not in registry", id)
	}
	if _, ok := t.servers[id]; ok {
		t.mu.Unlock()
		return fmt.Errorf("transport: node %s already listening", id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.mu.Unlock()
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t.servers[id] = ln
	t.registry[id] = ln.Addr().String()
	t.mu.Unlock()

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			t.mu.Lock()
			set := t.accepted[id]
			if set == nil {
				set = make(map[net.Conn]struct{})
				t.accepted[id] = set
			}
			set[conn] = struct{}{}
			t.mu.Unlock()
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.serveConn(conn, h)
				t.mu.Lock()
				if set := t.accepted[id]; set != nil {
					delete(set, conn)
				}
				t.mu.Unlock()
			}()
		}
	}()
	return nil
}

// serveConn reads requests and dispatches each to the handler on its own
// goroutine; responses are serialized through the frame writer's lock.
func (t *TCP) serveConn(conn net.Conn, h Handler) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, connReadBuf)
	fw := &frameWriter{conn: conn}
	for {
		reqID, method, hdr, body, err := readRequest(br)
		if err != nil {
			return
		}
		go func() {
			//lint:ignore ctxflow server-side root for one inbound request; cancellation does not cross the wire (see handlerContext)
			ctx := context.Background()
			if len(hdr) > 0 {
				// A corrupt header only loses tracing, never the call.
				if sc, err := trace.DecodeSpanContext(hdr); err == nil {
					ctx = trace.WithRemote(ctx, sc)
				}
			}
			reply, herr := h(ctx, method, body)
			status, payload := byte(0), reply
			if herr != nil {
				status, payload = byte(1), []byte(herr.Error())
			} else if len(reply) > maxFrameBytes {
				// Nothing is on the wire yet, so the stream stays in sync:
				// the caller gets an application error, not a dead link.
				status, payload = byte(1), []byte(frameTooLarge(method+" reply", len(reply)).Error())
			}
			if err := fw.writeResponse(reqID, status, payload); err != nil {
				// A failed — possibly partial — response write desyncs the
				// framing for every later reply multiplexed on this
				// connection. Tear it down so the peer fails fast and
				// redials instead of decoding garbage lengths.
				conn.Close()
			}
		}()
	}
}

// Call invokes a method on a remote node.
func (t *TCP) Call(ctx context.Context, to hashing.NodeID, method string, body []byte) ([]byte, error) {
	c, err := t.conn(to)
	if err != nil {
		return nil, err
	}
	reply, err := c.roundTrip(method, trace.Outbound(ctx).Encode(), body, t.timeout)
	if err != nil {
		var re *RemoteError
		if !errors.As(err, &re) && !errors.Is(err, ErrFrameTooLarge) {
			// Transport-level failure: drop the cached connection so the
			// next call redials.
			t.dropConn(to, c)
		}
		return nil, err
	}
	return reply, nil
}

func (t *TCP) conn(to hashing.NodeID) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errors.New("transport: network closed")
	}
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	addr, ok := t.registry[to]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s (not in registry)", ErrUnreachable, to)
	}
	raw, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, to, err)
	}
	c := newTCPConn(raw)
	t.mu.Lock()
	if existing, ok := t.conns[to]; ok {
		t.mu.Unlock()
		c.close(errors.New("transport: duplicate connection"))
		return existing, nil
	}
	t.conns[to] = c
	t.mu.Unlock()
	return c, nil
}

func (t *TCP) dropConn(to hashing.NodeID, c *tcpConn) {
	t.mu.Lock()
	if t.conns[to] == c {
		delete(t.conns, to)
	}
	t.mu.Unlock()
	c.close(ErrUnreachable)
}

// Unlisten stops serving on a node, closing its listener and every
// connection it has accepted (so in-flight peers see the crash promptly).
func (t *TCP) Unlisten(id hashing.NodeID) {
	t.mu.Lock()
	ln, ok := t.servers[id]
	delete(t.servers, id)
	conns := t.accepted[id]
	delete(t.accepted, id)
	t.mu.Unlock()
	if ok {
		ln.Close()
	}
	for conn := range conns {
		conn.Close()
	}
}

// Close stops all listeners and client connections.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	servers := t.servers
	conns := t.conns
	accepted := t.accepted
	t.servers = map[hashing.NodeID]net.Listener{}
	t.conns = map[hashing.NodeID]*tcpConn{}
	t.accepted = map[hashing.NodeID]map[net.Conn]struct{}{}
	t.mu.Unlock()
	for _, ln := range servers {
		ln.Close()
	}
	for _, c := range conns {
		c.close(errors.New("transport: network closed"))
	}
	// Accepted server-side connections must be torn down too, or wg.Wait
	// blocks until every remote peer hangs up on its own.
	for _, set := range accepted {
		for conn := range set {
			conn.Close()
		}
	}
	t.wg.Wait()
	return nil
}

// tcpConn is one multiplexed client connection.
type tcpConn struct {
	raw     net.Conn
	fw      frameWriter
	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan tcpReply
	err     error
}

type tcpReply struct {
	status byte
	data   []byte
}

func newTCPConn(raw net.Conn) *tcpConn {
	c := &tcpConn{raw: raw, fw: frameWriter{conn: raw}, pending: make(map[uint64]chan tcpReply)}
	//lint:ignore goroleak readLoop exits when the connection closes: readReply errors out and the loop returns
	go c.readLoop()
	return c
}

func (c *tcpConn) readLoop() {
	br := bufio.NewReaderSize(c.raw, connReadBuf)
	for {
		reqID, status, data, err := readResponse(br)
		if err != nil {
			c.close(fmt.Errorf("%w: %v", ErrUnreachable, err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[reqID]
		delete(c.pending, reqID)
		c.mu.Unlock()
		if ok {
			ch <- tcpReply{status: status, data: data}
		}
	}
}

func (c *tcpConn) roundTrip(method string, hdr, body []byte, timeout time.Duration) ([]byte, error) {
	ch := make(chan tcpReply, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.fw.writeRequest(id, method, hdr, body); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		if errors.Is(err, ErrFrameTooLarge) {
			return nil, err // refused before anything was sent
		}
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}

	var timer <-chan time.Time
	if timeout > 0 {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		timer = tm.C
	}
	select {
	case r := <-ch:
		switch r.status {
		case 0:
			return r.data, nil
		case statusTransportErr:
			return nil, fmt.Errorf("%w: %s", ErrUnreachable, r.data)
		default:
			return nil, &RemoteError{Method: method, Msg: string(r.data)}
		}
	case <-timer:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s after %v", ErrTimeout, method, timeout)
	}
}

// frameV2Flag marks a v2 request frame in the methodLen field; method
// names are bounded well below 32 KiB so the bit is free.
const frameV2Flag = 0x8000

// maxFrameBytes bounds one request or response body. The length fields
// are u32 and arrive from the network: a reader rejects a larger length
// before allocating for it and drops the connection (the stream cannot
// be resynchronized), a writer refuses a larger body instead of letting
// the u32 cast truncate it. 1 GiB is an order of magnitude above the
// largest body the engine builds (a batch of 32 MiB spills).
const maxFrameBytes = 1 << 30

// connReadBuf sizes each connection's read buffer: room for a burst of
// small frames per read syscall, and 32 connections stay at 1 MiB.
const connReadBuf = 32 << 10

// readRequest peeks a whole method name, so the buffer must hold one.
const _ = uint(connReadBuf - frameV2Flag)

// ErrFrameTooLarge is returned for a request body over maxFrameBytes.
// Nothing was sent, so the connection stays usable.
var ErrFrameTooLarge = errors.New("transport: frame exceeds the size limit")

func frameTooLarge(what string, n int) error {
	return fmt.Errorf("%w: %s is %d bytes, limit %d", ErrFrameTooLarge, what, n, maxFrameBytes)
}

// frameWriter serializes frames onto one connection. The frame header is
// built in a reused scratch buffer and handed to the kernel together
// with the caller's body (writev on a TCP socket, consecutive writes on
// any other net.Conn), so a body is never copied into a frame buffer.
type frameWriter struct {
	conn net.Conn

	mu  sync.Mutex
	hdr []byte      // header scratch
	arr [2][]byte   // backing array of vec
	vec net.Buffers // a field, not a local: WriteTo takes its address
}

// flush writes w.hdr followed by body. Caller holds w.mu.
func (w *frameWriter) flush(body []byte) error {
	w.arr[0], w.arr[1] = w.hdr, body
	w.vec = w.arr[:]
	_, err := w.vec.WriteTo(w.conn)
	w.arr[1] = nil // do not pin the caller's body until the next frame
	return err
}

func (w *frameWriter) writeRequest(id uint64, method string, envHdr, body []byte) error {
	if len(method) >= frameV2Flag {
		return errors.New("transport: method name too long")
	}
	if len(envHdr) > 1<<16-1 {
		return errors.New("transport: envelope header too long")
	}
	if len(body) > maxFrameBytes {
		return frameTooLarge(method+" request", len(body))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	h := binary.BigEndian.AppendUint64(w.hdr[:0], id)
	mlen := uint16(len(method))
	if len(envHdr) > 0 {
		mlen |= frameV2Flag // v2 frame: envelope header follows the method
	}
	h = binary.BigEndian.AppendUint16(h, mlen)
	h = append(h, method...)
	if len(envHdr) > 0 {
		h = binary.BigEndian.AppendUint16(h, uint16(len(envHdr)))
		h = append(h, envHdr...)
	}
	w.hdr = binary.BigEndian.AppendUint32(h, uint32(len(body)))
	return w.flush(body)
}

func (w *frameWriter) writeResponse(reqID uint64, status byte, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return frameTooLarge("response", len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	h := binary.BigEndian.AppendUint64(w.hdr[:0], reqID)
	h = append(h, status)
	w.hdr = binary.BigEndian.AppendUint32(h, uint32(len(payload)))
	return w.flush(payload)
}

func (c *tcpConn) close(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = map[uint64]chan tcpReply{}
	c.mu.Unlock()
	c.raw.Close()
	for _, ch := range pending {
		ch <- tcpReply{status: statusTransportErr, data: []byte(err.Error())}
	}
}

// statusTransportErr marks a locally synthesized failure reply (connection
// torn down) as opposed to an application error relayed from the remote
// handler (status 1).
const statusTransportErr = 2

// readBody reads one length-checked body into its own allocation, whose
// ownership passes to whoever receives it. A body at least as large as
// the read buffer is read straight from the socket into that allocation.
func readBody(br *bufio.Reader, n uint32) ([]byte, error) {
	if n > maxFrameBytes {
		return nil, fmt.Errorf("transport: frame length %d exceeds limit %d", n, maxFrameBytes)
	}
	body := make([]byte, n)
	_, err := io.ReadFull(br, body)
	return body, err
}

func readRequest(br *bufio.Reader) (reqID uint64, method string, envHdr, body []byte, err error) {
	fail := func(err error) (uint64, string, []byte, []byte, error) { return 0, "", nil, nil, err }
	// Fixed-size fields are parsed in place in the read buffer (Peek,
	// then Discard once used); only what outlives this call is copied.
	hdr, err := br.Peek(10)
	if err != nil {
		return fail(err)
	}
	reqID = binary.BigEndian.Uint64(hdr[0:8])
	mlen := binary.BigEndian.Uint16(hdr[8:10])
	br.Discard(10)
	v2 := mlen&frameV2Flag != 0
	n := int(mlen &^ frameV2Flag) // < 32 KiB: always fits the read buffer
	mbuf, err := br.Peek(n)
	if err != nil {
		return fail(err)
	}
	method = string(mbuf)
	br.Discard(n)
	if v2 {
		lbuf, err := br.Peek(2)
		if err != nil {
			return fail(err)
		}
		envHdr = make([]byte, binary.BigEndian.Uint16(lbuf))
		br.Discard(2)
		if _, err = io.ReadFull(br, envHdr); err != nil {
			return fail(err)
		}
	}
	lbuf, err := br.Peek(4)
	if err != nil {
		return fail(err)
	}
	blen := binary.BigEndian.Uint32(lbuf)
	br.Discard(4)
	if body, err = readBody(br, blen); err != nil {
		return fail(err)
	}
	return reqID, method, envHdr, body, nil
}

func readResponse(br *bufio.Reader) (reqID uint64, status byte, payload []byte, err error) {
	hdr, err := br.Peek(13)
	if err != nil {
		return 0, 0, nil, err
	}
	reqID = binary.BigEndian.Uint64(hdr[0:8])
	status = hdr[8]
	n := binary.BigEndian.Uint32(hdr[9:13])
	br.Discard(13)
	payload, err = readBody(br, n)
	return reqID, status, payload, err
}

var _ Network = (*TCP)(nil)
var _ Network = (*Local)(nil)
