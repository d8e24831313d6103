package metrics

import "sync/atomic"

// Ring is a bounded lock-free buffer of *T that overwrites its oldest
// entry when full — the retention discipline of both the trace span
// buffer and the structured event log. Writers claim a slot with one
// atomic increment and store the pointer; nothing is ever blocked or
// resized, and Dropped tells a collector how much history it lost.
// Values must not be mutated after Put.
type Ring[T any] struct {
	slots []atomic.Pointer[T]
	next  atomic.Uint64
}

// NewRing returns a ring retaining the newest capacity values
// (capacity must be positive).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{slots: make([]atomic.Pointer[T], capacity)}
}

// Put stores v, overwriting the oldest value once the ring has wrapped.
// Safe for concurrent use.
func (r *Ring[T]) Put(v *T) {
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(v)
}

// Snapshot returns the retained values oldest-first. Concurrent puts may
// race individual slots; each slot read is atomic, so every returned
// value is complete.
func (r *Ring[T]) Snapshot() []*T {
	n := r.next.Load()
	size := uint64(len(r.slots))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	out := make([]*T, 0, n-start)
	for i := start; i < n; i++ {
		if v := r.slots[i%size].Load(); v != nil {
			out = append(out, v)
		}
	}
	return out
}

// Dropped returns how many values have been overwritten.
func (r *Ring[T]) Dropped() int64 {
	n := r.next.Load()
	if size := uint64(len(r.slots)); n > size {
		return int64(n - size)
	}
	return 0
}
