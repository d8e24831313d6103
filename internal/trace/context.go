package trace

import (
	"context"
	"encoding/binary"
	"fmt"
)

// SpanContext is the portable part of a span that crosses node
// boundaries inside the transport envelope: which trace the call belongs
// to and which span is the caller-side parent.
type SpanContext struct {
	Trace  string
	Parent SpanID
}

// Valid reports whether the context identifies a trace.
func (sc SpanContext) Valid() bool { return sc.Trace != "" }

type ctxKey int

const (
	activeKey ctxKey = iota // *Span started locally
	remoteKey               // SpanContext received from a remote caller
)

// withActive returns ctx carrying sp as the active span.
func withActive(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, activeKey, sp)
}

// Active returns the span started locally in this context, or nil.
func Active(ctx context.Context) *Span {
	sp, _ := ctx.Value(activeKey).(*Span)
	return sp
}

// WithRemote returns ctx carrying a SpanContext received over the wire.
// Transports call this on the handler side so handler spans become
// children of the remote caller's span.
func WithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey, sc)
}

// Remote returns the SpanContext installed by WithRemote, if any.
func Remote(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(remoteKey).(SpanContext)
	return sc, ok
}

// Outbound returns the SpanContext to serialize into an outgoing RPC:
// the active local span if one exists, else any remote parent being
// forwarded, else the zero SpanContext (no tracing header emitted).
func Outbound(ctx context.Context) SpanContext {
	if sp := Active(ctx); sp != nil {
		return SpanContext{Trace: sp.Trace, Parent: sp.ID}
	}
	if sc, ok := Remote(ctx); ok {
		return sc
	}
	return SpanContext{}
}

// Annotate tags the active span in ctx (no-op without one).
func Annotate(ctx context.Context, key, value string) {
	Active(ctx).Annotate(key, value)
}

// Eventf records a timestamped event on the active span in ctx (no-op
// without one).
func Eventf(ctx context.Context, format string, args ...interface{}) {
	Active(ctx).Eventf(format, args...)
}

// StartRoot begins a new trace rooted at this tracer (trace ID = job
// ID) and returns a context carrying the root span. With tracing
// disabled, or when the trace is sampled out, it returns (ctx, nil);
// nil spans are safe everywhere.
func (t *Tracer) StartRoot(ctx context.Context, traceID, name string) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() || !t.sampled(traceID) {
		return ctx, nil
	}
	sp := t.start(traceID, 0, name, t.nowNS())
	return withActive(ctx, sp), sp
}

// StartSpan begins a child of the context's active span — or of the
// remote parent installed by the transport. Outside any trace it
// returns (ctx, nil).
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	return t.StartSpanAt(ctx, name, t.nowNS())
}

// StartSpanAt is StartSpan with an explicit start time (UnixNano on the
// tracer's clock), for spans reconstructed after the fact — e.g. a
// scheduler queue wait whose beginning is only known once the task is
// dispatched. End still computes the duration against the clock's now.
func (t *Tracer) StartSpanAt(ctx context.Context, name string, startNS int64) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	var sp *Span
	if parent := Active(ctx); parent != nil {
		sp = t.start(parent.Trace, parent.ID, name, startNS)
	} else if sc, ok := Remote(ctx); ok && sc.Valid() {
		sp = t.start(sc.Trace, sc.Parent, name, startNS)
	} else {
		return ctx, nil
	}
	return withActive(ctx, sp), sp
}

// scVersion tags the wire encoding of a SpanContext. The transport
// frames themselves are versioned separately; this byte lets the header
// payload evolve without another frame bump.
const scVersion = 1

// Encode serializes the SpanContext for the transport envelope:
//
//	[1] version  [8] parent span ID (big endian)  [2] len  [n] trace ID
//
// An invalid context encodes to nil (no header on the wire).
func (sc SpanContext) Encode() []byte {
	if !sc.Valid() || len(sc.Trace) > 0xffff {
		return nil
	}
	b := make([]byte, 0, 11+len(sc.Trace))
	b = append(b, scVersion)
	b = binary.BigEndian.AppendUint64(b, uint64(sc.Parent))
	b = binary.BigEndian.AppendUint16(b, uint16(len(sc.Trace)))
	b = append(b, sc.Trace...)
	return b
}

// DecodeSpanContext parses an Encode result. Unknown versions and short
// buffers fail; transports treat a failed decode as "no trace header"
// after surfacing the error to their metrics.
func DecodeSpanContext(b []byte) (SpanContext, error) {
	if len(b) < 11 {
		return SpanContext{}, fmt.Errorf("trace: span context too short (%d bytes)", len(b))
	}
	if b[0] != scVersion {
		return SpanContext{}, fmt.Errorf("trace: unknown span context version %d", b[0])
	}
	parent := binary.BigEndian.Uint64(b[1:9])
	n := int(binary.BigEndian.Uint16(b[9:11]))
	if len(b) != 11+n {
		return SpanContext{}, fmt.Errorf("trace: span context length mismatch: have %d want %d", len(b), 11+n)
	}
	return SpanContext{Trace: string(b[11:]), Parent: SpanID(parent)}, nil
}
