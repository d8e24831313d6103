package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"slices"
)

// Raw frames are the fast path for bulk-data methods (segment push and
// fetch): a small header describes the payload, and the payload itself —
// already length-prefixed KV bytes on the shuffle path — rides behind it
// verbatim. The header is encoded like any call payload (see Encode): the
// shuffle headers implement Wire, an arbitrary struct goes through gob.
// The frame is an opaque call body to every Network implementation, so
// the v1/v2 TCP envelope, chaos injection, retry and trace propagation
// all apply unchanged:
//
//	u32 headerLen | header | payload...

// EncodeFrame builds a raw frame from a header value and zero or more
// payload segments (concatenated in order). The segments are copied into
// the frame exactly once; no per-byte encoding pass touches them.
func EncodeFrame(hdr any, payload ...[]byte) ([]byte, error) {
	if m, ok := hdr.(wireAppender); ok {
		total := 0
		for _, p := range payload {
			total += len(p)
		}
		// One allocation when the header fits the slack; a longer header
		// regrows before the payload is in, so the bulk bytes still move
		// exactly once.
		out := m.AppendWire(make([]byte, 4, 4+128+total))
		binary.BigEndian.PutUint32(out, uint32(len(out)-4))
		out = slices.Grow(out, total)
		for _, p := range payload {
			out = append(out, p...)
		}
		return out, nil
	}
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0}) // header-length placeholder
	if err := gob.NewEncoder(&buf).Encode(hdr); err != nil {
		return nil, fmt.Errorf("transport: encode frame header: %w", err)
	}
	hdrLen := buf.Len() - 4
	total := buf.Len()
	for _, p := range payload {
		total += len(p)
	}
	buf.Grow(total - buf.Len())
	for _, p := range payload {
		buf.Write(p)
	}
	out := buf.Bytes()
	binary.BigEndian.PutUint32(out, uint32(hdrLen))
	return out, nil
}

// DecodeFrame decodes a raw frame's header into hdr (a pointer) and
// returns the payload as a sub-slice of body — zero copy; the payload
// aliases body and stays valid as long as body does. The untrusted
// header length is bounds-checked in uint64 space before any conversion
// so a corrupt frame errors instead of panicking, on every platform.
func DecodeFrame(body []byte, hdr any) ([]byte, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("transport: frame too short for header length (%d bytes)", len(body))
	}
	hdrLen64 := uint64(binary.BigEndian.Uint32(body))
	if hdrLen64 > uint64(len(body)-4) {
		return nil, fmt.Errorf("transport: frame header length %d exceeds body (%d bytes)", hdrLen64, len(body))
	}
	hdrLen := int(hdrLen64)
	if m, ok := hdr.(Wire); ok {
		if err := m.ParseWire(body[4 : 4+hdrLen]); err != nil {
			return nil, fmt.Errorf("transport: decode frame header: %w", err)
		}
		return body[4+hdrLen:], nil
	}
	if err := gob.NewDecoder(bytes.NewReader(body[4 : 4+hdrLen])).Decode(hdr); err != nil {
		return nil, fmt.Errorf("transport: decode frame header: %w", err)
	}
	return body[4+hdrLen:], nil
}
