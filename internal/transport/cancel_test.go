package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"eclipsemr/internal/hashing"
)

// TestRetryBackoffHonorsCancel pins the fix for the uncancellable retry
// loop: a caller that cancels mid-backoff must get its goroutine back
// immediately, with a context error and no further attempts.
func TestRetryBackoffHonorsCancel(t *testing.T) {
	inner := &flakyNet{failures: 100, err: ErrDropped}
	r := NewRetry(inner, RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := r.Call(ctx, "a", "m", nil)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled call took %v; the backoff ignored ctx", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls = %d, want 1 (no attempts after cancel)", inner.calls)
	}
}

// TestChaosLatencyHonorsCancel pins the fix for the uncancellable chaos
// delay: injected latency must release a cancelled caller immediately,
// so a cancelled job gets its goroutines back even from a slow link.
func TestChaosLatencyHonorsCancel(t *testing.T) {
	inner := NewLocal()
	defer inner.Close()
	if err := inner.Listen("b", func(ctx context.Context, method string, body []byte) ([]byte, error) {
		return []byte("ok"), nil
	}); err != nil {
		t.Fatal(err)
	}
	c := NewChaos(inner, ChaosConfig{Seed: 1, Latency: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Call(ctx, hashing.NodeID("b"), "ping", nil)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled call took %v; the chaos delay ignored ctx", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
