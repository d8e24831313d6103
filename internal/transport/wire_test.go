package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"eclipsemr/internal/hashing"
)

// wireMsg is a Wire message with one field of each primitive.
type wireMsg struct {
	U    uint64
	I    int
	B    bool
	S    string
	Data []byte
	K    hashing.Key
	D    time.Duration
	Ns   []int
}

func (m wireMsg) AppendWire(dst []byte) []byte {
	dst = AppendUvarint(dst, m.U)
	dst = AppendInt(dst, int64(m.I))
	dst = AppendBool(dst, m.B)
	dst = AppendString(dst, m.S)
	dst = AppendBytes(dst, m.Data)
	dst = AppendKey(dst, m.K)
	dst = AppendDuration(dst, m.D)
	dst = AppendUvarint(dst, uint64(len(m.Ns)))
	for _, n := range m.Ns {
		dst = AppendInt(dst, int64(n))
	}
	return dst
}

func (m *wireMsg) ParseWire(src []byte) error {
	r := NewWireReader(src)
	*m = wireMsg{U: r.Uvarint(), I: r.Int(), B: r.Bool(), S: r.Str(), Data: r.Bytes(), K: r.Key(), D: r.Duration()}
	if n := r.Count(1); n > 0 {
		m.Ns = make([]int, n)
		for i := range m.Ns {
			m.Ns[i] = r.Int()
		}
	}
	return r.Done()
}

func TestWirePrimitivesRoundTrip(t *testing.T) {
	cases := []wireMsg{
		{},
		{U: 1, I: -1, B: true, S: "s", Data: []byte{0}, K: 1, D: time.Second, Ns: []int{7}},
		{U: math.MaxUint64, I: math.MinInt, S: "\xff\x00\xfe", Data: bytes.Repeat([]byte{0xAB}, 1<<20),
			K: ^hashing.Key(0), D: math.MinInt64, Ns: []int{math.MaxInt, math.MinInt, 0}},
		{I: math.MaxInt, D: math.MaxInt64},
	}
	for i, in := range cases {
		enc, err := Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, in.AppendWire(nil)) {
			t.Fatalf("case %d: Encode did not take the Wire path", i)
		}
		var out wireMsg
		if err := Decode(enc, &out); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if out.U != in.U || out.I != in.I || out.B != in.B || out.S != in.S || !bytes.Equal(out.Data, in.Data) ||
			out.K != in.K || out.D != in.D || len(out.Ns) != len(in.Ns) {
			t.Fatalf("case %d: round trip changed the message", i)
		}
		for j := range in.Ns {
			if out.Ns[j] != in.Ns[j] {
				t.Fatalf("case %d: Ns[%d] = %d, want %d", i, j, out.Ns[j], in.Ns[j])
			}
		}
	}
}

func TestWireKeyIsFixedBigEndian(t *testing.T) {
	got := AppendKey(nil, 0x0102030405060708)
	if want := []byte{1, 2, 3, 4, 5, 6, 7, 8}; !bytes.Equal(got, want) {
		t.Fatalf("AppendKey = %x, want %x", got, want)
	}
}

func TestWireReaderStickyError(t *testing.T) {
	r := NewWireReader([]byte{5, 'a'}) // a 5-byte string with 1 byte behind it
	if s := r.Str(); s != "" {
		t.Fatalf("short string read as %q", s)
	}
	first := r.Err()
	if first == nil {
		t.Fatal("short string: no error")
	}
	// Every later read is a zero value and the first error stays.
	if r.Uvarint() != 0 || r.Int() != 0 || r.Bool() || r.Key() != 0 || r.Bytes() != nil || r.Count(1) != 0 {
		t.Fatal("read after failure returned a non-zero value")
	}
	if r.Done() != first {
		t.Fatalf("Done = %v, want the first error %v", r.Done(), first)
	}
}

func TestWireReaderRejects(t *testing.T) {
	cases := map[string]struct {
		in   []byte
		read func(r *WireReader)
	}{
		"empty uvarint":      {nil, func(r *WireReader) { r.Uvarint() }},
		"unfinished uvarint": {[]byte{0x80, 0x80}, func(r *WireReader) { r.Uvarint() }},
		"overlong uvarint":   {bytes.Repeat([]byte{0xff}, 11), func(r *WireReader) { r.Uvarint() }},
		"empty bool":         {nil, func(r *WireReader) { r.Bool() }},
		"bool of 2":          {[]byte{2}, func(r *WireReader) { r.Bool() }},
		"short key":          {make([]byte, 7), func(r *WireReader) { r.Key() }},
		"negative raw":       {[]byte{1}, func(r *WireReader) { r.Raw(-1) }},
		"raw past the end":   {[]byte{1}, func(r *WireReader) { r.Raw(2) }},
		"count over remains": {[]byte{100, 0, 0, 0}, func(r *WireReader) { r.Count(1) }},
		// Count bounds by the element size, not just by one byte each.
		"count of wide elements": {append([]byte{3}, make([]byte, 16)...), func(r *WireReader) { r.Count(8) }},
		"int over 64 bits":       {bytes.Repeat([]byte{0xff}, 11), func(r *WireReader) { r.Int() }},
	}
	for name, c := range cases {
		r := NewWireReader(c.in)
		if c.read(&r); r.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	r := NewWireReader([]byte{1, 2})
	if r.Raw(1); r.Done() == nil {
		t.Error("trailing byte accepted by Done")
	}
}

func TestWireRawClipsCapacity(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	r := NewWireReader(src)
	head := r.Raw(2)
	_ = append(head, 9) // must reallocate, not overwrite src[2]
	if src[2] != 3 {
		t.Fatal("appending to a Raw view wrote into the bytes behind it")
	}
}

// TestEncodeFallsBackToGob: a type without the codec still crosses, and
// Decode of a Wire type reports a malformed body as an error.
func TestEncodeFallsBackToGob(t *testing.T) {
	type cold struct{ A, B string }
	enc, err := Encode(cold{A: "x", B: "y"})
	if err != nil {
		t.Fatal(err)
	}
	var out cold
	if err := Decode(enc, &out); err != nil || out.A != "x" || out.B != "y" {
		t.Fatalf("gob fallback round trip: %+v, %v", out, err)
	}
	var m wireMsg
	if err := Decode([]byte{0x80}, &m); err == nil || !strings.Contains(err.Error(), "transport: decode") {
		t.Fatalf("malformed wire body: err = %v", err)
	}
}

// TestFrameWireHeader: a Wire header rides in the same frame layout as a
// gob one, with the payload behind it verbatim and aliased on decode.
func TestFrameWireHeader(t *testing.T) {
	hdr := wireMsg{S: strings.Repeat("long header ", 40), Ns: []int{3, 5}} // longer than EncodeFrame's slack
	frame, err := EncodeFrame(hdr, []byte("abc"), nil, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	enc := hdr.AppendWire(nil)
	if got := int(binary.BigEndian.Uint32(frame)); got != len(enc) {
		t.Fatalf("header length field = %d, want %d", got, len(enc))
	}
	if !bytes.Equal(frame[4:4+len(enc)], enc) || string(frame[4+len(enc):]) != "abchello" {
		t.Fatal("frame is not u32 len | header | payload")
	}
	var got wireMsg
	payload, err := DecodeFrame(frame, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got.S != hdr.S || len(got.Ns) != 2 || string(payload) != "abchello" {
		t.Fatalf("decoded %+v / %q", got, payload)
	}
	if &payload[0] != &frame[len(frame)-len(payload)] {
		t.Fatal("payload is not a view of the frame")
	}
	if _, err := DecodeFrame(frame[:4+len(enc)-1], &got); err == nil {
		t.Fatal("truncated Wire header accepted")
	}
}
