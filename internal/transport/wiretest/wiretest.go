// Package wiretest is the shared contract suite for transport.Wire
// codecs. The message types live (mostly unexported) in the packages that
// own the methods, so each of those packages hands its messages to
// CheckAll, Fuzz, Rejects and Bench from its own tests.
package wiretest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"eclipsemr/internal/transport"
)

// fresh returns a new zero message of m's type (m is a pointer).
func fresh(m transport.Wire) transport.Wire {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface().(transport.Wire)
}

// prefixEdge is how far from either end of a large encoding Check tries
// every prefix length.
const prefixEdge = 4096

var timeType = reflect.TypeOf(time.Time{})

// same is reflect.DeepEqual up to what neither gob nor the compiled
// codec preserves: an empty slice or map and a nil one are the same, and
// two times are the same when they name the same instant in the same
// zone offset.
func same(a, b reflect.Value) bool {
	if a.Type() == timeType {
		ta, tb := a.Interface().(time.Time), b.Interface().(time.Time)
		_, oa := ta.Zone()
		_, ob := tb.Zone()
		return ta.Equal(tb) && oa == ob
	}
	switch a.Kind() {
	case reflect.Pointer:
		return same(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !a.Type().Field(i).IsExported() {
				continue // process-local state: neither encoding carries it
			}
			if !same(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		if a.Kind() == reflect.Slice && a.Type().Elem().Kind() == reflect.Uint8 {
			return bytes.Equal(a.Bytes(), b.Bytes()) // multi-MiB payloads
		}
		for i := 0; i < a.Len(); i++ {
			if !same(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !same(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// sameMsg reports whether two messages of one type carry the same value.
func sameMsg(a, b transport.Wire) bool {
	return same(reflect.ValueOf(a), reflect.ValueOf(b))
}

// typeName names a message's type for sub-test names and case matching.
func typeName(m transport.Wire) string { return reflect.TypeOf(m).Elem().Name() }

// CheckAll runs Check over every case and requires each of the package's
// message types (a zero value of each in types) to have at least one.
func CheckAll(t *testing.T, types, cases []transport.Wire) {
	covered := make(map[string]bool)
	for i, m := range cases {
		covered[typeName(m)] = true
		t.Run(fmt.Sprintf("%d-%s", i, typeName(m)), func(t *testing.T) { Check(t, m) })
	}
	for _, m := range types {
		if !covered[typeName(m)] {
			t.Errorf("%s has no case", typeName(m))
		}
	}
}

// Check runs the codec contract over one message (a non-nil pointer):
// the encoding decodes back to the message; it decodes to what a gob
// round trip of the message gives; every strict prefix of it is
// rejected; and flipped bits never make the decoder panic, allocate out
// of proportion to the input, or accept something that does not
// round-trip. (A flip inside a string or a payload yields a different
// valid message: no length or checksum covers those bytes, the transport
// below does.)
func Check(t *testing.T, m transport.Wire) {
	t.Helper()
	enc, err := transport.Encode(m)
	if err != nil {
		t.Fatalf("%T: encode: %v", m, err)
	}
	got := fresh(m)
	if err := transport.Decode(enc, got); err != nil {
		t.Fatalf("%T: decode of own encoding: %v", m, err)
	}
	if !sameMsg(m, got) {
		t.Fatalf("%T: round trip changed the message:\n in  %+v\n out %+v", m, m, got)
	}

	// The messages moved from gob to Wire without changing meaning.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatalf("%T: gob encode: %v", m, err)
	}
	viaGob := fresh(m)
	if err := gob.NewDecoder(&buf).Decode(viaGob); err != nil {
		t.Fatalf("%T: gob decode: %v", m, err)
	}
	if !sameMsg(viaGob, got) {
		t.Fatalf("%T: wire and gob round trips differ:\n wire %+v\n gob  %+v", m, got, viaGob)
	}

	rnd := rand.New(rand.NewSource(int64(len(enc))))
	for n := 0; n < len(enc); n++ {
		// Every prefix of a small message; both ends and a sample of the
		// middle of a multi-MiB one.
		if n >= prefixEdge && n < len(enc)-prefixEdge {
			n = min(n+rnd.Intn(len(enc)/256), len(enc)-prefixEdge)
		}
		if err := fresh(m).ParseWire(enc[:n]); err == nil {
			t.Fatalf("%T: %d-byte prefix of a %d-byte encoding accepted", m, n, len(enc))
		}
	}

	if len(enc) == 0 {
		return
	}
	const flips = 256
	mut := make([]byte, len(enc))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < flips; i++ {
		copy(mut, enc)
		bit := rnd.Intn(8 * len(mut))
		mut[bit/8] ^= 1 << (bit % 8)
		checkAccepted(t, m, mut)
	}
	runtime.ReadMemStats(&after)
	// A decode may allocate a small multiple of its input (a slice of
	// structs per count byte), never a length field's worth.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(flips*(64*len(enc)+4096)); got > limit {
		t.Fatalf("%T: %d bit-flipped decodes of %d bytes allocated %d bytes (limit %d)", m, flips, len(enc), got, limit)
	}
}

// checkAccepted parses arbitrary bytes as a message of m's type. A
// rejection is fine; an accepted input must survive encode and decode
// unchanged.
func checkAccepted(t testing.TB, m transport.Wire, data []byte) {
	t.Helper()
	first := fresh(m)
	if first.ParseWire(data) != nil {
		return
	}
	again := fresh(m)
	if err := again.ParseWire(first.AppendWire(nil)); err != nil {
		t.Fatalf("%T: re-encoding of an accepted input rejected: %v", m, err)
	}
	if !sameMsg(first, again) {
		t.Fatalf("%T: accepted input does not round-trip:\n first %+v\n again %+v", m, first, again)
	}
}

// Fuzz is the body of a package's FuzzWireDecode target. The fuzzed tag
// picks one of the package's message types (its index in types, which
// the committed corpus depends on: append only), the fuzzed bytes are
// parsed as that type. The small cases seed the run.
func Fuzz(f *testing.F, types, cases []transport.Wire) {
	for _, m := range cases {
		enc := m.AppendWire(nil)
		if len(enc) > 1<<16 {
			continue
		}
		for tag, typ := range types {
			if typeName(typ) == typeName(m) {
				f.Add(byte(tag), enc)
			}
		}
	}
	f.Fuzz(func(t *testing.T, tag byte, data []byte) {
		checkAccepted(t, types[int(tag)%len(types)], data)
	})
}

// Bench measures one encode plus one decode of m (a non-nil pointer)
// through its compiled codec ("wire") and, as the reference, through a
// fresh gob encoder and decoder per message ("gob") — what
// transport.Encode and Decode did for every message before the codecs.
func Bench(b *testing.B, m transport.Wire) {
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		out := fresh(m)
		for i := 0; i < b.N; i++ {
			enc, err := transport.Encode(m)
			if err != nil {
				b.Fatal(err)
			}
			if err := transport.Decode(enc, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gob", func(b *testing.B) {
		b.ReportAllocs()
		out := fresh(m)
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(m); err != nil {
				b.Fatal(err)
			}
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Rejects asserts that body is refused as a message of m's type and that
// refusing it allocates next to nothing: a forged count or length must be
// checked against the input before anything is sized by it.
func Rejects(t *testing.T, m transport.Wire, body []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fresh(m).ParseWire(body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Errorf("%T: hostile %d-byte body accepted", m, len(body))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("%T: rejecting a %d-byte body allocated %d bytes", m, len(body), got)
	}
}
