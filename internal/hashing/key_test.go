package hashing

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestKeyOfDeterministic(t *testing.T) {
	a := KeyOf([]byte("hello"))
	b := KeyOf([]byte("hello"))
	if a != b {
		t.Fatalf("KeyOf not deterministic: %v != %v", a, b)
	}
	if a == KeyOf([]byte("world")) {
		t.Fatalf("distinct inputs produced identical keys")
	}
}

func TestKeyOfStringMatchesKeyOf(t *testing.T) {
	f := func(s string) bool { return KeyOfString(s) == KeyOf([]byte(s)) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockKeyDistinctPerIndex(t *testing.T) {
	seen := map[Key]int{}
	for i := 0; i < 1000; i++ {
		k := BlockKey("input.txt", i)
		if j, dup := seen[k]; dup {
			t.Fatalf("block %d and %d collide on key %v", i, j, k)
		}
		seen[k] = i
	}
}

func TestKeyString(t *testing.T) {
	if got := Key(0xdeadbeef).String(); got != "00000000deadbeef" {
		t.Fatalf("Key.String() = %q", got)
	}
}

func TestDistanceWraps(t *testing.T) {
	if d := Distance(10, 5); d != ^uint64(0)-4 {
		t.Fatalf("Distance(10,5) = %d", d)
	}
	if d := Distance(5, 10); d != 5 {
		t.Fatalf("Distance(5,10) = %d", d)
	}
	if d := Distance(7, 7); d != 0 {
		t.Fatalf("Distance(k,k) = %d", d)
	}
}

func TestBetweenBasic(t *testing.T) {
	cases := []struct {
		k, a, b Key
		want    bool
	}{
		{5, 1, 10, true},
		{10, 1, 10, true}, // inclusive end
		{1, 1, 10, false}, // exclusive start
		{11, 1, 10, false},
		{0, 10, 2, true},  // wrapped arc
		{11, 10, 2, true}, // wrapped arc
		{5, 10, 2, false}, // outside wrapped arc
		{7, 7, 7, true},   // a == b covers full ring
		{1, 7, 7, true},
	}
	for _, c := range cases {
		if got := Between(c.k, c.a, c.b); got != c.want {
			t.Errorf("Between(%d,%d,%d) = %v want %v", c.k, c.a, c.b, got, c.want)
		}
	}
}

func TestInRangeBasic(t *testing.T) {
	cases := []struct {
		k, s, e Key
		want    bool
	}{
		{5, 1, 10, true},
		{1, 1, 10, true},   // inclusive start
		{10, 1, 10, false}, // exclusive end
		{0, 10, 2, true},   // wrapped
		{10, 10, 2, true},  // wrapped, start inclusive
		{2, 10, 2, false},  // wrapped, end exclusive
		{5, 3, 3, true},    // start == end covers full ring
	}
	for _, c := range cases {
		if got := InRange(c.k, c.s, c.e); got != c.want {
			t.Errorf("InRange(%d,%d,%d) = %v want %v", c.k, c.s, c.e, got, c.want)
		}
	}
}

// Property: for any a != b, each key is either in (a,b] or in (b,a] but
// never both — the two arcs partition the ring.
func TestBetweenPartitionsRing(t *testing.T) {
	f := func(k, a, b Key) bool {
		if a == b {
			return Between(k, a, b)
		}
		in1 := Between(k, a, b)
		in2 := Between(k, b, a)
		return in1 != in2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: InRange and Between agree up to boundary conventions:
// Between(k, a, b) == InRange(k-? ...) is awkward, so instead check the
// complementary-partition property of InRange directly.
func TestInRangePartitionsRing(t *testing.T) {
	f := func(k, a, b Key) bool {
		if a == b {
			return InRange(k, a, b)
		}
		return InRange(k, a, b) != InRange(k, b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: clockwise distances compose around the ring.
func TestDistanceComposes(t *testing.T) {
	f := func(a, b, c Key) bool {
		return Distance(a, b)+Distance(b, c) == Distance(a, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestKeyStringFormat pins Key.String to the sixteen hex digits %016x
// prints: block file names and cache keys on disk and in logs depend on it.
func TestKeyStringFormat(t *testing.T) {
	for _, k := range []Key{0, 1, 0xf, 0x10, 0xdeadbeef, 0x0123456789abcdef, 1 << 63, MaxKey - 1, MaxKey, KeyOfString("x")} {
		if got, want := k.String(), fmt.Sprintf("%016x", uint64(k)); got != want {
			t.Errorf("Key(%d).String() = %q, want %q", uint64(k), got, want)
		}
	}
	f := func(k Key) bool { return k.String() == fmt.Sprintf("%016x", uint64(k)) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

var keyStringSink string

func BenchmarkKeyString(b *testing.B) {
	for i := 0; i < b.N; i++ {
		keyStringSink = Key(uint64(i) * 0x9e3779b97f4a7c15).String()
	}
}
