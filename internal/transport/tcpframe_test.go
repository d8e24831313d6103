package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eclipsemr/internal/hashing"
)

// Golden frames, written out byte by byte from the format in the TCP doc
// comment: what the engine has put on the wire since the v2 envelope was
// introduced. The framing must not move even though the bodies did.
var (
	goldenV1 = append([]byte{
		0, 0, 0, 0, 0, 0, 0, 7, // reqID
		0, 11, // methodLen, v1
		'f', 's', '.', 'g', 'e', 't', 'B', 'l', 'o', 'c', 'k',
		0, 0, 0, 3, // bodyLen
	}, 1, 2, 3)
	goldenV2 = append([]byte{
		1, 2, 3, 4, 5, 6, 7, 8, // reqID
		0x80, 9, // methodLen | v2 flag
		'm', 'r', '.', 'r', 'u', 'n', 'M', 'a', 'p',
		0, 8, // envelope header length
		'T', 'R', 'A', 'C', 'E', 'H', 'D', 'R',
		0, 0, 0, 2, // bodyLen
	}, 'x', 'y')
	goldenResp = append([]byte{
		0, 0, 0, 0, 0, 0, 0, 7, // reqID
		1,          // status: application error
		0, 0, 0, 4, // payload length
	}, 'b', 'o', 'o', 'm')
	goldenEmptyResp = []byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
)

const math32Max = ^uint32(0)

// tcpPipe returns the two ends of a loopback TCP connection, so the
// writer under test takes the vectored-write path it takes in production.
func tcpPipe(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestFramingGoldenBytes(t *testing.T) {
	client, server := tcpPipe(t)
	fw := &frameWriter{conn: client}
	writes := []struct {
		name  string
		write func() error
		want  []byte
	}{
		{"v1 request", func() error { return fw.writeRequest(7, "fs.getBlock", nil, []byte{1, 2, 3}) }, goldenV1},
		{"v2 request", func() error {
			return fw.writeRequest(0x0102030405060708, "mr.runMap", []byte("TRACEHDR"), []byte("xy"))
		}, goldenV2},
		{"error response", func() error { return fw.writeResponse(7, 1, []byte("boom")) }, goldenResp},
		{"empty response", func() error { return fw.writeResponse(256, 0, nil) }, goldenEmptyResp},
	}
	for _, w := range writes {
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got := make([]byte, len(w.want))
		server.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(server, got); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !bytes.Equal(got, w.want) {
			t.Fatalf("%s on the wire:\n got  %x\n want %x", w.name, got, w.want)
		}
	}

	// And the readers take the same bytes apart.
	br := bufio.NewReaderSize(bytes.NewReader(append(bytes.Clone(goldenV1), goldenV2...)), connReadBuf)
	id, method, env, body, err := readRequest(br)
	if err != nil || id != 7 || method != "fs.getBlock" || env != nil || !bytes.Equal(body, []byte{1, 2, 3}) {
		t.Fatalf("v1 parsed as id=%d method=%q env=%q body=%x err=%v", id, method, env, body, err)
	}
	id, method, env, body, err = readRequest(br)
	if err != nil || id != 0x0102030405060708 || method != "mr.runMap" || string(env) != "TRACEHDR" || string(body) != "xy" {
		t.Fatalf("v2 parsed as id=%x method=%q env=%q body=%q err=%v", id, method, env, body, err)
	}
	id, status, payload, err := readResponse(bufio.NewReader(bytes.NewReader(goldenResp)))
	if err != nil || id != 7 || status != 1 || string(payload) != "boom" {
		t.Fatalf("response parsed as id=%d status=%d payload=%q err=%v", id, status, payload, err)
	}
}

// TestFramingBodyOwnsItsMemory: a body read through the shared buffer is
// its own allocation, so a handler may keep it while later frames reuse
// the buffer.
func TestFramingBodyOwnsItsMemory(t *testing.T) {
	var stream []byte
	for i := 0; i < 3; i++ {
		stream = append(stream, goldenV1...)
		stream[len(stream)-1] = byte(10 + i)
	}
	br := bufio.NewReaderSize(bytes.NewReader(stream), connReadBuf)
	var bodies [][]byte
	for i := 0; i < 3; i++ {
		_, _, _, body, err := readRequest(br)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for i, body := range bodies {
		if body[2] != byte(10+i) {
			t.Fatalf("body %d was overwritten by a later frame: %x", i, body)
		}
	}
}

// serveEcho runs serveConn with echoHandler on one end of a connection.
func serveEcho(t *testing.T, conn net.Conn) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		(&TCP{}).serveConn(conn, echoHandler)
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
}

// TestFramingDribblingClient: a peer that delivers a request one byte
// per write (every field split across reads) is decoded correctly.
func TestFramingDribblingClient(t *testing.T) {
	client, server := tcpPipe(t)
	serveEcho(t, server)
	for _, b := range append(bytes.Clone(goldenV2), goldenV1...) {
		if _, err := client.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(client)
	got := make(map[uint64]string)
	for i := 0; i < 2; i++ {
		id, status, payload, err := readResponse(br)
		if err != nil || status != 0 {
			t.Fatalf("response %d: status=%d err=%v", i, status, err)
		}
		got[id] = string(payload)
	}
	if got[7] != "fs.getBlock:\x01\x02\x03" || got[0x0102030405060708] != "mr.runMap:xy" {
		t.Fatalf("replies = %q", got)
	}
}

// TestFramingDribblingServer: the client's reply reader copes with a
// server that writes one byte at a time.
func TestFramingDribblingServer(t *testing.T) {
	clientRaw, server := tcpPipe(t)
	client := newTCPConn(clientRaw)
	defer client.close(errors.New("test done"))
	go func() {
		br := bufio.NewReader(server)
		for {
			id, method, _, body, err := readRequest(br)
			if err != nil {
				return
			}
			var frame bytes.Buffer
			fw := &frameWriter{conn: recordConn{&frame}}
			if fw.writeResponse(id, 0, append([]byte(method+"="), body...)) != nil {
				return
			}
			for _, b := range frame.Bytes() {
				if _, err := server.Write([]byte{b}); err != nil {
					return
				}
			}
		}
	}()
	for i := 0; i < 3; i++ {
		body := bytes.Repeat([]byte{byte('a' + i)}, 100*i)
		reply, err := client.roundTrip("m", nil, body, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if want := "m=" + string(body); string(reply) != want {
			t.Fatalf("reply %d = %q, want %q", i, reply, want)
		}
	}
}

// recordConn is a net.Conn that only records writes (and, not being a
// TCP socket, takes net.Buffers' one-write-per-buffer path).
type recordConn struct{ w io.Writer }

func (c recordConn) Write(b []byte) (int, error)    { return c.w.Write(b) }
func (recordConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (recordConn) Close() error                     { return nil }
func (recordConn) LocalAddr() net.Addr              { return nil }
func (recordConn) RemoteAddr() net.Addr             { return nil }
func (recordConn) SetDeadline(time.Time) error      { return nil }
func (recordConn) SetReadDeadline(time.Time) error  { return nil }
func (recordConn) SetWriteDeadline(time.Time) error { return nil }

// TestFramingManyFramesOneSegment: a burst of requests arriving in one
// read is split into its frames, each answered once.
func TestFramingManyFramesOneSegment(t *testing.T) {
	client, server := tcpPipe(t)
	serveEcho(t, server)
	const n = 200
	var burst bytes.Buffer
	fw := &frameWriter{conn: recordConn{&burst}}
	for i := 1; i <= n; i++ {
		var env []byte
		if i%3 == 0 {
			env = []byte("span-context")
		}
		if err := fw.writeRequest(uint64(i), "echo", env, []byte(fmt.Sprintf("body-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(client)
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		id, status, payload, err := readResponse(br)
		if err != nil || status != 0 {
			t.Fatalf("response %d: status=%d err=%v", i, status, err)
		}
		if want := fmt.Sprintf("echo:body-%03d", id); string(payload) != want || seen[id] {
			t.Fatalf("reply for request %d = %q (seen before: %v)", id, payload, seen[id])
		}
		seen[id] = true
	}
}

// TestTCPConcurrentMixedSizes: 64 calls in flight on one connection, with
// empty, 1 KiB and 1 MiB bodies interleaved, each get their own reply.
func TestTCPConcurrentMixedSizes(t *testing.T) {
	tcp := newTCPPair(t)
	if err := tcp.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	sizes := []int{0, 1 << 10, 1 << 20}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := bytes.Repeat([]byte{byte(i)}, sizes[i%len(sizes)])
			method := fmt.Sprintf("m%02d", i)
			reply, err := tcp.Call(context.Background(), "a", method, body)
			if err != nil {
				errs <- fmt.Errorf("call %d: %w", i, err)
				return
			}
			if want := append([]byte(method+":"), body...); !bytes.Equal(reply, want) {
				errs <- fmt.Errorf("call %d: reply of %d bytes does not echo its %d-byte request", i, len(reply), len(body))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// allocatedDuring reports the bytes allocated while fn runs.
func allocatedDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTCPServerRejectsForgedRequestLength is the regression test for
// make([]byte, u32) straight from a request header: a forged length above
// the frame limit must drop the connection before allocating for it.
func TestTCPServerRejectsForgedRequestLength(t *testing.T) {
	tcp := newTCPPair(t)
	if err := tcp.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	addr, _ := tcp.Addr("a")
	for _, forged := range []uint32{maxFrameBytes + 1, math32Max} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		frame := bytes.Clone(goldenV1[:len(goldenV1)-3-4])
		frame = binary.BigEndian.AppendUint32(frame, forged)
		var rerr error
		allocated := allocatedDuring(func() {
			conn.Write(frame)
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, rerr = conn.Read(make([]byte, 1))
		})
		conn.Close()
		if rerr == nil || errors.Is(rerr, context.DeadlineExceeded) || strings.Contains(rerr.Error(), "timeout") {
			t.Fatalf("length %d: server kept the connection open (read err %v)", forged, rerr)
		}
		if allocated > 16<<20 {
			t.Fatalf("length %d: %d bytes allocated while rejecting it", forged, allocated)
		}
	}
	// The listener is unharmed.
	if _, err := tcp.Call(context.Background(), "a", "ok", nil); err != nil {
		t.Fatalf("call after forged frames: %v", err)
	}
}

// TestTCPClientRejectsForgedResponseLength: the same on the reply path —
// the client tears the connection down (failing the call fast, as
// unreachable) instead of allocating what a corrupt header asks for.
func TestTCPClientRejectsForgedResponseLength(t *testing.T) {
	clientRaw, server := tcpPipe(t)
	client := newTCPConn(clientRaw)
	defer client.close(errors.New("test done"))
	go func() {
		id, _, _, _, err := readRequest(bufio.NewReader(server))
		if err != nil {
			return
		}
		hdr := binary.BigEndian.AppendUint64(nil, id)
		hdr = append(hdr, 0)
		server.Write(binary.BigEndian.AppendUint32(hdr, math32Max))
	}()
	var err error
	allocated := allocatedDuring(func() {
		_, err = client.roundTrip("m", nil, []byte("x"), 5*time.Second)
	})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable (connection torn down)", err)
	}
	if allocated > 16<<20 {
		t.Fatalf("%d bytes allocated while rejecting a forged reply length", allocated)
	}
	if _, err := client.roundTrip("m", nil, nil, time.Second); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("connection still usable after a desynced stream: %v", err)
	}
}

// TestTCPCallOnDroppedConnectionIsUnreachableOnce: a call pending when its
// connection goes, because the server hangs up or the caller's network
// closes, fails as unreachable, and says so once, not once per layer that
// relayed the failure.
func TestTCPCallOnDroppedConnectionIsUnreachableOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		drop func(server net.Conn, client *TCP)
	}{
		{"server hangs up", func(server net.Conn, _ *TCP) { server.Close() }},
		{"network closed", func(_ net.Conn, client *TCP) { client.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			tcp := NewTCP(map[hashing.NodeID]string{"srv": ln.Addr().String()}, 5*time.Second)
			defer tcp.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				if _, _, _, _, err := readRequest(bufio.NewReader(conn)); err == nil {
					tc.drop(conn, tcp) // the call is in flight
				}
			}()
			_, err = tcp.Call(context.Background(), "srv", "m", []byte("x"))
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("err = %v, want ErrUnreachable", err)
			}
			if n := strings.Count(err.Error(), ErrUnreachable.Error()); n != 1 {
				t.Fatalf("err = %q names %q %d times, want once", err, ErrUnreachable, n)
			}
		})
	}
}

// TestTCPWritersRefuseOversizedBodies is the regression test for the
// silent uint32(len(body)) truncation: a body over the limit is an error
// on either side, nothing is written, and the connection stays in sync.
func TestTCPWritersRefuseOversizedBodies(t *testing.T) {
	tcp := newTCPPair(t)
	huge := make([]byte, maxFrameBytes+1) // untouched pages: costs address space only
	err := tcp.Listen("a", func(_ context.Context, method string, body []byte) ([]byte, error) {
		if method == "huge-reply" {
			return huge, nil
		}
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := tcp.Call(ctx, "a", "echo", huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized request: err = %v, want ErrFrameTooLarge", err)
	}
	var re *RemoteError
	if _, err := tcp.Call(ctx, "a", "huge-reply", nil); !errors.As(err, &re) || !strings.Contains(re.Msg, "size limit") {
		t.Fatalf("oversized reply: err = %v, want a remote error naming the size limit", err)
	}
	if reply, err := tcp.Call(ctx, "a", "echo", []byte("still in sync")); err != nil || string(reply) != "still in sync" {
		t.Fatalf("call after refused frames: %q, %v", reply, err)
	}
	// The frame writer itself refuses too, whoever calls it.
	var sink bytes.Buffer
	fw := &frameWriter{conn: recordConn{&sink}}
	if err := fw.writeRequest(1, "m", nil, huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("writeRequest: %v", err)
	}
	if err := fw.writeResponse(1, 0, huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("writeResponse: %v", err)
	}
	if sink.Len() != 0 {
		t.Fatalf("%d bytes written for refused frames", sink.Len())
	}
}

// BenchmarkTCPRoundTrip: one echo call over loopback TCP, request and
// reply bodies of the given size. B/op is the memory the transport
// allocates per call — every user-space copy of a body needs a buffer,
// so it bounds the bytes copied; the throughput counts both directions.
func BenchmarkTCPRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{{"1K", 1 << 10}, {"256K", 256 << 10}} {
		b.Run(bc.name, func(b *testing.B) {
			tcp := NewTCP(map[hashing.NodeID]string{"a": "127.0.0.1:0"}, 0)
			defer tcp.Close()
			err := tcp.Listen("a", func(_ context.Context, _ string, body []byte) ([]byte, error) { return body, nil })
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			body := bytes.Repeat([]byte{0xA5}, bc.size)
			if _, err := tcp.Call(ctx, "a", "echo", body); err != nil { // dial outside the timer
				b.Fatal(err)
			}
			b.SetBytes(int64(2 * bc.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reply, err := tcp.Call(ctx, "a", "echo", body)
				if err != nil || len(reply) != bc.size {
					b.Fatalf("reply of %d bytes, err %v", len(reply), err)
				}
			}
		})
	}
}
