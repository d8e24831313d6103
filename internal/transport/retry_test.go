package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"eclipsemr/internal/hashing"
)

// flakyNet fails the first failures calls with err, then succeeds.
type flakyNet struct {
	calls    int
	failures int
	err      error
}

func (f *flakyNet) Listen(id hashing.NodeID, h Handler) error { return nil }
func (f *flakyNet) Unlisten(id hashing.NodeID)                {}
func (f *flakyNet) Close() error                              { return nil }
func (f *flakyNet) Call(_ context.Context, to hashing.NodeID, method string, body []byte) ([]byte, error) {
	f.calls++
	if f.calls <= f.failures {
		return nil, f.err
	}
	return []byte("ok"), nil
}

func TestRetryRecoversTransientFailures(t *testing.T) {
	inner := &flakyNet{failures: 2, err: ErrDropped}
	r := NewRetry(inner, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	out, err := r.Call(context.Background(), "a", "m", nil)
	if err != nil {
		t.Fatalf("retry did not absorb 2 drops: %v", err)
	}
	if string(out) != "ok" || inner.calls != 3 {
		t.Fatalf("out = %q after %d inner calls", out, inner.calls)
	}
	if got := r.NetMetrics().Snapshot().Get("net.retries"); got != 2 {
		t.Fatalf("net.retries = %d, want 2", got)
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	inner := &flakyNet{failures: 100, err: ErrTimeout}
	r := NewRetry(inner, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	_, err := r.Call(context.Background(), "a", "m", nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("exhausted error must preserve the cause: %v", err)
	}
	if inner.calls != 3 {
		t.Fatalf("inner calls = %d, want 3", inner.calls)
	}
	if got := r.NetMetrics().Snapshot().Get("net.retry_exhausted"); got != 1 {
		t.Fatalf("net.retry_exhausted = %d, want 1", got)
	}
}

func TestRetryDoesNotRetryStructuralFailures(t *testing.T) {
	inner := &flakyNet{failures: 100, err: ErrUnreachable}
	r := NewRetry(inner, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})
	_, err := r.Call(context.Background(), "a", "m", nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	// Unreachable is structural: failing fast keeps failure detection and
	// replica failover prompt.
	if inner.calls != 1 {
		t.Fatalf("inner calls = %d, want 1 (no retry on ErrUnreachable)", inner.calls)
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond,
		MaxDelay: 10 * time.Millisecond, Multiplier: 2, JitterFrac: -1}.withDefaults()
	want := []time.Duration{
		2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond,
		10 * time.Millisecond, 10 * time.Millisecond, // capped
	}
	for retry, w := range want {
		if got := p.Backoff(retry, 0.99); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v (jitter disabled)", retry, got, w)
		}
	}
	// With jitter, the delay shrinks by at most JitterFrac.
	pj := RetryPolicy{BaseDelay: 8 * time.Millisecond, JitterFrac: 0.5}.withDefaults()
	if got := pj.Backoff(0, 1.0); got < 4*time.Millisecond || got > 8*time.Millisecond {
		t.Fatalf("jittered Backoff = %v, want within [4ms, 8ms]", got)
	}
}

func TestRetryOverChaosPreservesOrigins(t *testing.T) {
	inner := NewLocal()
	defer inner.Close()
	chaos := NewChaos(inner, ChaosConfig{Seed: 7, Drop: 0.4})
	r := NewRetry(chaos, RetryPolicy{MaxAttempts: 8, BaseDelay: 100 * time.Microsecond})
	if err := r.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := r.From("b").Call(context.Background(), "a", "m", nil); err != nil {
			t.Fatalf("call %d not absorbed by retry at drop=0.4: %v", i, err)
		}
	}
	snap := r.NetMetrics().Snapshot()
	if snap.Get("net.retries") == 0 {
		t.Fatal("no retries recorded at drop=0.4")
	}
	// The chaos layer saw origin-stamped traffic even through the retry
	// decorator: crash-stop of the *caller* must cut these calls off.
	chaos.Crash("b")
	if _, err := r.From("b").Call(context.Background(), "a", "m", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("crashed origin still reached a: %v", err)
	}
}

// TestTCPDeadListenerTypedError covers the reconnect satellite: a call to
// a registered address where nothing listens must fail quickly with the
// typed ErrUnreachable rather than hanging until the call timeout.
func TestTCPDeadListenerTypedError(t *testing.T) {
	net := NewTCP(map[hashing.NodeID]string{"dead": "127.0.0.1:1"}, 5*time.Second)
	defer net.Close()
	start := time.Now()
	_, err := net.Call(context.Background(), "dead", "m", nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("dead listener took %v to fail (hang, not typed refusal)", time.Since(start))
	}
}

// TestTCPReconnectAfterRegister restarts a node's listener on a new port
// and re-registers the address: subsequent calls must succeed.
func TestTCPReconnectAfterRegister(t *testing.T) {
	server1 := NewTCP(map[hashing.NodeID]string{"a": "127.0.0.1:0"}, 5*time.Second)
	defer server1.Close()
	if err := server1.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	addr1, ok := server1.Addr("a")
	if !ok {
		t.Fatal("no bound address for a")
	}
	caller := NewTCP(map[hashing.NodeID]string{"a": addr1}, 5*time.Second)
	defer caller.Close()
	if _, err := caller.Call(context.Background(), "a", "m", nil); err != nil {
		t.Fatalf("initial call: %v", err)
	}

	// The node restarts elsewhere: old listener gone, new port.
	server1.Unlisten("a")
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := caller.Call(context.Background(), "a", "m", nil); err != nil {
			break // old address now refuses
		}
		if time.Now().After(deadline) {
			t.Fatal("calls still succeed after Unlisten")
		}
		time.Sleep(5 * time.Millisecond)
	}

	server2 := NewTCP(map[hashing.NodeID]string{"a": "127.0.0.1:0"}, 5*time.Second)
	defer server2.Close()
	if err := server2.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	addr2, _ := server2.Addr("a")
	caller.Register("a", addr2)
	reply, err := caller.Call(context.Background(), "a", "back", []byte("x"))
	if err != nil {
		t.Fatalf("call after re-register: %v", err)
	}
	if string(reply) != "back:x" {
		t.Fatalf("reply = %q", reply)
	}
}

// TestRetryPerMethodHistogramCached: the per-call instruments keep their
// names (bench/ and the dashboards read them) while the hit path no
// longer builds the name: one histogram per method, one observation per
// call, retries included in the call they belong to.
func TestRetryPerMethodHistogramCached(t *testing.T) {
	inner := NewLocal()
	defer inner.Close()
	r := NewRetry(inner, RetryPolicy{})
	if err := r.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := r.Call(ctx, "a", "fs.getBlock", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.From("b").Call(ctx, "a", "mr.runMap", nil); err != nil {
		t.Fatal(err)
	}
	snap := r.NetMetrics().Snapshot()
	if got := snap.Get("net.calls"); got != 6 {
		t.Fatalf("net.calls = %d, want 6", got)
	}
	if got := snap.Hists["net.rpc.fs.getBlock_ns"].Count(); got != 5 {
		t.Fatalf("net.rpc.fs.getBlock_ns count = %d, want 5", got)
	}
	if got := snap.Hists["net.rpc.mr.runMap_ns"].Count(); got != 1 {
		t.Fatalf("net.rpc.mr.runMap_ns count = %d, want 1", got)
	}
	if h := r.rpcHist("fs.getBlock"); h != r.rpcHist("fs.getBlock") || h != r.NetMetrics().Histogram("net.rpc.fs.getBlock_ns") {
		t.Fatal("rpcHist does not return the registry's histogram")
	}
	if allocs := testing.AllocsPerRun(100, func() { r.rpcHist("fs.getBlock") }); allocs != 0 {
		t.Fatalf("cached histogram lookup allocates %v times", allocs)
	}
}
