package transport

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/trace"
)

// RetryPolicy bounds transparent retries of transient call failures
// (dropped messages, timeouts) with exponential backoff and jitter.
// Structural failures — ErrUnreachable, remote application errors — are
// never retried here: unreachable nodes are the upper layers' business
// (replica failover, task re-dispatch), and application errors are
// deterministic.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included).
	// Zero selects 3; 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// multiplies it by Multiplier, capped at MaxDelay. Zeros select
	// 2 ms / 2.0 / 250 ms.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// JitterFrac randomizes each delay within [d·(1−JitterFrac), d] so
	// synchronized retry storms decorrelate. Zero selects 0.5; negative
	// disables jitter.
	JitterFrac float64
	// Seed seeds the jitter PRNG (reproducible backoff schedules in
	// tests). Zero selects 1.
	Seed int64
}

// DefaultRetryPolicy returns the policy the cluster mounts by default.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond,
		MaxDelay: 250 * time.Millisecond, Multiplier: 2, JitterFrac: 0.5, Seed: 1}
}

// withDefaults fills zero fields from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = def.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = def.MaxDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = def.Multiplier
	}
	if p.JitterFrac == 0 {
		p.JitterFrac = def.JitterFrac
	} else if p.JitterFrac < 0 {
		p.JitterFrac = 0
	}
	if p.Seed == 0 {
		p.Seed = def.Seed
	}
	return p
}

// Backoff returns the delay before retry number retry (0-based), given a
// uniform variate u in [0,1) for the jitter.
func (p RetryPolicy) Backoff(retry int, u float64) time.Duration {
	d := float64(p.BaseDelay)
	for i := 0; i < retry; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	d *= 1 - p.JitterFrac*u
	return time.Duration(d)
}

// Retry decorates a Network with the policy: Call transparently retries
// transient failures. It preserves origin facets of the inner network, so
// Retry(Chaos(Local)) keeps per-origin fault injection.
type Retry struct {
	inner  Network
	policy RetryPolicy
	reg    *metrics.Registry
	// The per-call instruments are resolved once, not by name per call.
	calls, retries, exhausted *metrics.Counter

	mu  sync.Mutex
	rnd *rand.Rand

	histMu sync.RWMutex
	hists  map[string]*metrics.Histogram // method -> net.rpc.<method>_ns
}

// NewRetry wraps a network. A zero policy selects DefaultRetryPolicy.
func NewRetry(inner Network, policy RetryPolicy) *Retry {
	policy = policy.withDefaults()
	r := &Retry{
		inner:  inner,
		policy: policy,
		reg:    metrics.NewRegistry(),
		rnd:    rand.New(rand.NewSource(policy.Seed)),
		hists:  make(map[string]*metrics.Histogram),
	}
	// Created up front, so every metrics snapshot shows the retry counters.
	r.calls = r.reg.Counter("net.calls")
	r.retries = r.reg.Counter("net.retries")
	r.exhausted = r.reg.Counter("net.retry_exhausted")
	return r
}

// Listen delegates to the inner network.
func (r *Retry) Listen(id hashing.NodeID, h Handler) error { return r.inner.Listen(id, h) }

// Unlisten delegates to the inner network.
func (r *Retry) Unlisten(id hashing.NodeID) { r.inner.Unlisten(id) }

// Close delegates to the inner network.
func (r *Retry) Close() error { return r.inner.Close() }

// Call invokes a method, retrying transient failures per the policy.
func (r *Retry) Call(ctx context.Context, to hashing.NodeID, method string, body []byte) ([]byte, error) {
	return r.callOn(ctx, r.inner, to, method, body)
}

// From returns a facet with the given origin if the inner network
// supports origins, else the Retry itself.
func (r *Retry) From(id hashing.NodeID) Network {
	if on, ok := r.inner.(OriginNetwork); ok {
		return retryFacet{r: r, inner: on.From(id)}
	}
	return r
}

// Unwrap exposes the inner network.
func (r *Retry) Unwrap() Network { return r.inner }

// NetMetrics exposes the retry counters.
func (r *Retry) NetMetrics() *metrics.Registry { return r.reg }

// rpcHist returns the method's latency histogram. The method set is
// small and fixed, so after the first call of each method this is a map
// hit under a read lock, with no name built.
func (r *Retry) rpcHist(method string) *metrics.Histogram {
	r.histMu.RLock()
	h, ok := r.hists[method]
	r.histMu.RUnlock()
	if ok {
		return h
	}
	//lint:ignore metricname per-RPC-method histogram family; the name space is bounded by the cluster's fixed method set
	h = r.reg.Histogram("net.rpc." + method + "_ns")
	r.histMu.Lock()
	r.hists[method] = h
	r.histMu.Unlock()
	return h
}

func (r *Retry) uniform() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rnd.Float64()
}

// callOn is the shared retry loop for the base network and its facets.
// The whole loop is timed into a per-method latency histogram, so the
// recorded RPC latency includes backoff sleeps and any chaos-injected
// delay from an inner Chaos network — the latency the caller actually
// experienced.
func (r *Retry) callOn(ctx context.Context, inner Network, to hashing.NodeID, method string, body []byte) ([]byte, error) {
	r.calls.Inc()
	defer r.rpcHist(method).Start().Stop()
	var lastErr error
	for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.retries.Inc()
			backoff := r.policy.Backoff(attempt-1, r.uniform())
			// Each retry attempt is a span event on the caller side, and
			// the (last) attempt number an annotation, so retried RPCs are
			// visible in collected traces.
			trace.Eventf(ctx, "retry attempt=%d method=%s backoff=%v cause=%v",
				attempt, method, backoff, lastErr)
			trace.Annotate(ctx, "retry", strconv.Itoa(attempt))
			// A cancelled caller gets out of the backoff immediately; the
			// context error is non-transient, so no further attempts run.
			if err := sleepCtx(ctx, backoff); err != nil {
				return nil, fmt.Errorf("transport: %s to %s abandoned in backoff after %d attempt(s): %w",
					method, to, attempt, err)
			}
		}
		out, err := inner.Call(ctx, to, method, body)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if !IsTransient(err) {
			return nil, err
		}
	}
	r.exhausted.Inc()
	return nil, fmt.Errorf("transport: %d attempts to %s exhausted: %w",
		r.policy.MaxAttempts, to, lastErr)
}

type retryFacet struct {
	r     *Retry
	inner Network
}

func (f retryFacet) Listen(id hashing.NodeID, h Handler) error { return f.r.Listen(id, h) }
func (f retryFacet) Unlisten(id hashing.NodeID)                { f.r.Unlisten(id) }
func (f retryFacet) Close() error                              { return f.r.Close() }
func (f retryFacet) Call(ctx context.Context, to hashing.NodeID, method string, body []byte) ([]byte, error) {
	return f.r.callOn(ctx, f.inner, to, method, body)
}

var _ OriginNetwork = (*Retry)(nil)
var _ MetricsSource = (*Retry)(nil)
