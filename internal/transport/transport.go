// Package transport provides the message substrate EclipseMR nodes use to
// talk to each other: a Network interface with two implementations, an
// in-process network for tests, examples and single-process clusters, and
// a TCP network (cmd/eclipse-node) for real multi-machine deployment.
//
// The unit of communication is a named method call carrying opaque bytes;
// the layers above define the method set and encode payloads with Encode:
// a hand-written Wire codec for the messages whose count scales with
// tasks, blocks or spills, gob for the cold control plane. Keeping the
// transport byte-oriented means every protocol
// interaction — metadata lookup, block reads, proactive shuffle pushes,
// heartbeats, election messages — crosses the same boundary whether the
// peers share a process or a data center.
package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/trace"
)

// Handler processes one inbound call on a node. The context carries the
// caller's trace.SpanContext (if the call was traced) and nothing else:
// cancellation does not cross the wire, so handlers receive a fresh
// context even on the in-process network.
type Handler func(ctx context.Context, method string, body []byte) ([]byte, error)

// Network connects nodes by ID.
type Network interface {
	// Listen registers a node and its handler.
	Listen(id hashing.NodeID, h Handler) error
	// Call invokes method on the destination node and returns its reply.
	// The context's active trace span (if any) is propagated to the
	// handler through the transport envelope.
	Call(ctx context.Context, to hashing.NodeID, method string, body []byte) ([]byte, error)
	// Unlisten removes a node; subsequent calls to it fail.
	Unlisten(id hashing.NodeID)
	// Close tears the network down.
	Close() error
}

// handlerContext builds the context a handler runs under: a fresh
// background context carrying only the caller's span context, preserving
// distributed semantics (no shared cancellation or values) on every
// transport.
func handlerContext(callerCtx context.Context) context.Context {
	//lint:ignore ctxflow deliberate severing: handlers must not inherit the caller's cancellation, mirroring a real network boundary
	return trace.WithRemote(context.Background(), trace.Outbound(callerCtx))
}

// ErrUnreachable is returned when the destination node is not listening
// (crashed, partitioned, or never started).
var ErrUnreachable = errors.New("transport: node unreachable")

// ErrDropped is returned when a message was lost in flight (only the
// fault-injecting Chaos network produces it). The handler may or may not
// have executed — a dropped reply looks identical to a dropped request —
// so callers must treat retried calls as at-least-once.
var ErrDropped = errors.New("transport: message dropped")

// ErrTimeout is returned when a call did not complete within the
// transport's per-call timeout. As with ErrDropped, the remote handler
// may have executed.
var ErrTimeout = errors.New("transport: call timed out")

// IsTransient reports whether an error is worth retrying on the same
// destination: lost messages and timeouts are transient, while
// ErrUnreachable is structural (the node is gone — callers should fail
// over to a replica instead of hammering a dead address).
func IsTransient(err error) bool {
	return errors.Is(err, ErrDropped) || errors.Is(err, ErrTimeout)
}

// OriginNetwork is implemented by networks that can stamp outbound calls
// with the calling node's identity. Per-origin facets enable asymmetric
// fault injection (A can reach B while B cannot reach A) and proper
// crash-stop semantics (a crashed node's own outbound calls fail too).
type OriginNetwork interface {
	Network
	// From returns a facet of the network whose Calls carry the given
	// origin. Listen/Unlisten/Close on the facet affect the shared
	// network.
	From(id hashing.NodeID) Network
}

// MetricsSource is implemented by network layers that expose operational
// counters (retries, injected drops, …).
type MetricsSource interface {
	NetMetrics() *metrics.Registry
}

// RemoteError wraps an error string returned by a remote handler so
// callers can distinguish transport failures from application failures.
type RemoteError struct {
	Method string
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s failed: %s", e.Method, e.Msg)
}

// Local is an in-process Network. Payloads are copied on both directions
// so callers cannot observe shared memory across the "wire", preserving
// distributed semantics. Nodes can be partitioned for failure-injection
// tests.
type Local struct {
	mu          sync.RWMutex
	handlers    map[hashing.NodeID]Handler
	partitioned map[hashing.NodeID]bool
	closed      bool
}

// NewLocal builds an empty in-process network.
func NewLocal() *Local {
	return &Local{
		handlers:    make(map[hashing.NodeID]Handler),
		partitioned: make(map[hashing.NodeID]bool),
	}
}

// Listen registers a node.
func (l *Local) Listen(id hashing.NodeID, h Handler) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("transport: network closed")
	}
	if _, ok := l.handlers[id]; ok {
		return fmt.Errorf("transport: node %s already listening", id)
	}
	l.handlers[id] = h
	return nil
}

// Call invokes a method on the destination.
func (l *Local) Call(ctx context.Context, to hashing.NodeID, method string, body []byte) ([]byte, error) {
	l.mu.RLock()
	h, ok := l.handlers[to]
	cut := l.partitioned[to]
	closed := l.closed
	l.mu.RUnlock()
	if closed || !ok || cut {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	reply, err := h(handlerContext(ctx), method, append([]byte(nil), body...))
	if err != nil {
		return nil, &RemoteError{Method: method, Msg: err.Error()}
	}
	return append([]byte(nil), reply...), nil
}

// Unlisten removes a node.
func (l *Local) Unlisten(id hashing.NodeID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.handlers, id)
	delete(l.partitioned, id)
}

// Partition makes a node unreachable without deregistering it — the node
// keeps running but nobody can call it, simulating a network failure as
// opposed to a crash.
func (l *Local) Partition(id hashing.NodeID, cut bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partitioned[id] = cut
}

// Close shuts the network down.
func (l *Local) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.handlers = map[hashing.NodeID]Handler{}
	return nil
}

// wireAppender is the encoding half of Wire, which value types satisfy
// too (ParseWire needs a pointer).
type wireAppender interface {
	AppendWire(dst []byte) []byte
}

// Encode encodes a value for a call payload: through its compiled codec
// when it implements Wire (every per-task, per-block and per-spill
// message does), through gob otherwise (the cold control-plane and
// client messages, and the durable files that share this entry point).
func Encode(v any) ([]byte, error) {
	if m, ok := v.(wireAppender); ok {
		// Small messages fit the initial capacity; the ones carrying
		// bulk bytes let the append of those bytes grow dst once.
		return m.AppendWire(make([]byte, 0, 64)), nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode decodes a call payload into out (a pointer), by the same rule
// as Encode. A Wire message's []byte fields alias data afterwards.
func Decode(data []byte, out any) error {
	if m, ok := out.(Wire); ok {
		if err := m.ParseWire(data); err != nil {
			return fmt.Errorf("transport: decode: %w", err)
		}
		return nil
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(out); err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	return nil
}
