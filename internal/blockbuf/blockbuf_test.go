package blockbuf

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// poisonForTest turns the poisoning of recycled arrays on for one test, so
// "the array reached the free list" is something the test can read.
func poisonForTest(t *testing.T) {
	was := poisonRecycled
	poisonRecycled = true
	t.Cleanup(func() { poisonRecycled = was })
}

func poisoned(data []byte) bool {
	return len(data) > 0 && bytes.Count(data, []byte{poisonByte}) == len(data)
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestBufferLifecycleStateMachine walks a buffer of every origin through
// sequences of Retain ('+') and Release ('-').
func TestBufferLifecycleStateMachine(t *testing.T) {
	poisonForTest(t)
	fresh := func(data []byte) *Buf {
		b, _ := Get(len(data))
		copy(b.Bytes(), data)
		return b
	}
	cases := []struct {
		name   string
		origin func([]byte) *Buf
		ops    string
		// lastPanics says the last operation is one too many.
		lastPanics bool
		// recycled says the array is on the free list afterwards.
		recycled bool
	}{
		{"shared bytes, one holder", Of, "-", false, false},
		{"shared bytes, two holders", Of, "+--", false, false},
		{"shared bytes, over-release", Of, "--", true, false},
		{"adopted, still held", Adopt, "+-", false, false},
		{"adopted, last release recycles", Adopt, "++---", false, true},
		{"adopted, over-release", Adopt, "+---", true, true},
		{"adopted, retain through a reference given up", Adopt, "-+", true, true},
		{"read buffer, last release recycles", fresh, "-", false, true},
		{"read buffer, held by a second reader", fresh, "+-", false, false},
		{"read buffer, over-release", fresh, "--", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			content := bytes.Repeat([]byte{0x11}, 64)
			b := tc.origin(bytes.Clone(content))
			array := b.Bytes() // the test's own view, kept past the releases
			for i, op := range tc.ops {
				step := b.Release
				if op == '+' {
					step = func() { b.Retain() }
				}
				if want := tc.lastPanics && i == len(tc.ops)-1; panics(step) != want {
					t.Fatalf("op %d (%c): panicked = %v, want %v", i, op, !want, want)
				}
			}
			if tc.recycled != poisoned(array) {
				t.Fatalf("array recycled = %v, want %v", poisoned(array), tc.recycled)
			}
			if !tc.recycled && !bytes.Equal(array, content) {
				t.Fatalf("bytes of a buffer still held (or never recyclable) changed: %x", array[:8])
			}
		})
	}
}

func TestNilBufferIsEmptyAndReleasable(t *testing.T) {
	var b *Buf
	if b.Bytes() != nil || b.Len() != 0 {
		t.Fatal("nil buffer is not empty")
	}
	b.Release()
}

// drain empties the free list of what earlier tests left on it.
func drain() {
	for free.Get() != nil {
	}
}

// reuses reports whether, within a few tries, a Get of n bytes that
// follows the release of a recyclable buffer of have bytes lands in that
// buffer's array. sync.Pool promises nothing about a single Put (under the
// race detector it drops one in four), hence the tries.
func reuses(have, n int) bool {
	for try := 0; try < 200; try++ {
		drain()
		b := Adopt(make([]byte, have))
		array := &b.Bytes()[0]
		b.Release()
		got, reused := Get(n)
		same := reused && &got.Bytes()[0] == array
		got.Release()
		if same {
			return true
		}
	}
	return false
}

func TestGetTakesAnArrayTheBlockHalfFills(t *testing.T) {
	cases := []struct {
		have, n int
		want    bool
	}{
		{4096, 4096, true},
		{4096, 2048, true},  // the last block of a file
		{4096, 2047, false}, // would leave more than half idle
		{4096, 4097, false}, // too small
		{4096, 16, false},
	}
	for _, tc := range cases {
		if got := reuses(tc.have, tc.n); got != tc.want {
			t.Errorf("array of %d for a block of %d: reused = %v, want %v", tc.have, tc.n, got, tc.want)
		}
	}
}

// TestGetLeavesALargerArrayForALargerBlock: a small read must not throw
// away the array a block-sized read could use.
func TestGetLeavesALargerArrayForALargerBlock(t *testing.T) {
	for try := 0; try < 200; try++ {
		drain()
		big := Adopt(make([]byte, 1<<16))
		array := &big.Bytes()[0]
		big.Release()
		small, _ := Get(16)
		got, reused := Get(1 << 16)
		same := reused && &got.Bytes()[0] == array
		small.Release()
		got.Release()
		if same {
			return
		}
	}
	t.Fatal("a 16-byte read never left the 64 KiB array on the free list")
}

// TestUnreleasedBufferIsCollected: a reference nobody gives up keeps the
// buffer off the free list and nothing else alive.
func TestUnreleasedBufferIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		b, _ := Get(1 << 16)
		b.Retain()
		b.Release() // one reference is left, and forgotten
		runtime.SetFinalizer(b, func(*Buf) { close(collected) })
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("a buffer with a forgotten reference was never collected")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
