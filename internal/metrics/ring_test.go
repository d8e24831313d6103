package metrics

import (
	"sync"
	"testing"
)

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRing[int](4)
	if len(r.Snapshot()) != 0 || r.Dropped() != 0 {
		t.Fatalf("empty ring: %d values, %d dropped", len(r.Snapshot()), r.Dropped())
	}
	for i := 0; i < 10; i++ {
		v := i
		r.Put(&v)
	}
	got := r.Snapshot()
	if len(got) != 4 || *got[0] != 6 || *got[3] != 9 {
		t.Fatalf("ring kept %d values starting at %d, want the newest 4 oldest-first (6..9)", len(got), *got[0])
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", r.Dropped())
	}
}

// TestRingConcurrentPut: concurrent writers never lose a slot claim — the
// ring ends full of distinct values and Dropped accounts for the rest.
func TestRingConcurrentPut(t *testing.T) {
	const writers, perWriter, capacity = 8, 500, 64
	r := NewRing[int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := w*perWriter + i
				r.Put(&v)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[int]bool, capacity)
	for _, v := range r.Snapshot() {
		seen[*v] = true
	}
	if len(seen) != capacity {
		t.Fatalf("ring retains %d distinct values, want %d", len(seen), capacity)
	}
	if want := int64(writers*perWriter - capacity); r.Dropped() != want {
		t.Fatalf("Dropped() = %d, want %d", r.Dropped(), want)
	}
}
