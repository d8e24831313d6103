package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"eclipsemr/internal/hashing"
)

// Wire is the compiled codec every per-task, per-block and per-spill
// message implements by hand: AppendWire appends the message's encoding
// to dst, ParseWire replaces the receiver with the message encoded in
// src. Encode, Decode, EncodeFrame and DecodeFrame use it whenever the
// value has it and fall back to gob otherwise, so a type has exactly one
// encoding and nothing selects between the two at run time.
//
// By convention AppendWire has a value receiver and ParseWire a pointer
// receiver, so *T implements Wire and Encode accepts T or *T.
//
// ParseWire must treat src as hostile: lengths are validated against the
// bytes that remain before anything is allocated (see WireReader), and a
// malformed message is an error, never a panic. []byte fields decode as
// sub-slices of src — the message keeps src alive and must not be used
// to modify it.
type Wire interface {
	AppendWire(dst []byte) []byte
	ParseWire(src []byte) error
}

// Primitive encodings shared by every Wire implementation:
//
//	uint       LEB128 uvarint
//	int        zigzag varint (durations too, as nanoseconds)
//	bool       one byte, 0 or 1
//	string     uvarint length | bytes
//	[]byte     uvarint length | bytes
//	Key        8 bytes big-endian (hashes are uniform; a varint would be longer)
//	[]T        uvarint count | count elements
//
// Fields follow each other in declaration order with no tags: the two
// ends of a connection must run the same binary.

// AppendUvarint appends v as an LEB128 uvarint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendInt appends v as a zigzag varint.
func AppendInt(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendBool appends v as one byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends s length-prefixed.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends b length-prefixed.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendKey appends a ring key as 8 big-endian bytes.
func AppendKey(dst []byte, k hashing.Key) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(k))
}

// AppendDuration appends d as zigzag-varint nanoseconds.
func AppendDuration(dst []byte, d time.Duration) []byte {
	return binary.AppendVarint(dst, int64(d))
}

// errWireShort is the sticky error of a reader that ran out of input.
var errWireShort = errors.New("transport: wire message truncated")

// WireReader consumes a Wire encoding front to back. The first failure
// sticks: every later read returns a zero value, so a ParseWire reads all
// its fields unconditionally and checks Done once. Every length is
// compared against the remaining input in unsigned space before it is
// converted to int or used to allocate.
type WireReader struct {
	buf []byte
	err error
}

// NewWireReader reads from src.
func NewWireReader(src []byte) WireReader { return WireReader{buf: src} }

// Fail records err (if the reader has not failed yet).
func (r *WireReader) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.buf = nil
	}
}

// Err returns the sticky error.
func (r *WireReader) Err() error { return r.err }

// Done returns the sticky error, or an error if input is left over: a
// message is exactly its fields.
func (r *WireReader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.Fail(fmt.Errorf("transport: %d trailing bytes after wire message", len(r.buf)))
	}
	return r.err
}

// Uvarint reads an LEB128 uvarint.
func (r *WireReader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail(errWireShort)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int64 reads a zigzag varint.
func (r *WireReader) Int64() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.Fail(errWireShort)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int reads a zigzag varint that must fit the platform's int.
func (r *WireReader) Int() int {
	v := r.Int64()
	if v < math.MinInt || v > math.MaxInt {
		r.Fail(fmt.Errorf("transport: wire int %d overflows int", v))
		return 0
	}
	return int(v)
}

// Bool reads one byte that must be 0 or 1.
func (r *WireReader) Bool() bool {
	if len(r.buf) < 1 {
		r.Fail(errWireShort)
		return false
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	if b > 1 {
		r.Fail(fmt.Errorf("transport: wire bool is %d", b))
		return false
	}
	return b == 1
}

// Count reads an element count for a slice whose elements each occupy at
// least elemMin (>= 1) encoded bytes, rejecting counts the remaining
// input cannot hold — the allocation that follows is bounded by the
// message's own size.
func (r *WireReader) Count(elemMin int) int {
	n := r.Uvarint()
	if n > uint64(len(r.buf))/uint64(elemMin) {
		r.Fail(fmt.Errorf("transport: wire count %d exceeds remaining %d bytes", n, len(r.buf)))
		return 0
	}
	return int(n)
}

// Raw returns the next n bytes as a sub-slice of the input (capacity
// clipped, so appending to it cannot scribble over what follows).
func (r *WireReader) Raw(n int) []byte {
	if n < 0 || n > len(r.buf) {
		r.Fail(errWireShort)
		return nil
	}
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out
}

// Bytes reads a length-prefixed byte string as a sub-slice of the input;
// zero length reads as nil.
func (r *WireReader) Bytes() []byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	return r.Raw(n)
}

// Str reads a length-prefixed string (copied out of the input).
func (r *WireReader) Str() string { return string(r.Raw(r.Count(1))) }

// Key reads an 8-byte big-endian ring key.
func (r *WireReader) Key() hashing.Key {
	b := r.Raw(8)
	if b == nil {
		return 0
	}
	return hashing.Key(binary.BigEndian.Uint64(b))
}

// Duration reads zigzag-varint nanoseconds.
func (r *WireReader) Duration() time.Duration { return time.Duration(r.Int64()) }
