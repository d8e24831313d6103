package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"eclipsemr/internal/bundle"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/trace"
)

// Debug-bundle assembly: any node can build a cluster-wide bundle by
// fanning the collection RPCs (cluster.events, cluster.spans,
// cluster.stats) over its membership view. Collection is
// replica-tolerant on purpose — bundles are captured exactly when parts
// of the cluster are failing, so an unreachable member contributes
// nothing instead of failing the capture. The merged event timeline and
// the canonical encoding make two captures of the same quiesced state
// byte-identical.

// BuildBundle assembles a debug bundle for one job ("" = everything)
// with the stated capture reason. The local node is read directly; every
// other view member is asked over the network and skipped if
// unreachable.
func (n *Node) BuildBundle(ctx context.Context, job, reason string) (*bundle.Bundle, error) {
	n.mu.Lock()
	view := n.view
	manager := n.manager
	n.mu.Unlock()

	members := make([]hashing.NodeID, 0, len(view.Members))
	for id := range view.Members {
		members = append(members, id)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	if len(members) == 0 {
		members = []hashing.NodeID{n.ID} // not yet in a view: capture locally
	}

	b := &bundle.Bundle{
		Reason:    reason,
		Node:      string(n.ID),
		Job:       job,
		CreatedNS: n.events.NowNS(),
		Membership: bundle.Membership{
			Manager: string(manager),
			Epoch:   view.Epoch,
		},
	}
	for _, id := range members {
		b.Membership.Members = append(b.Membership.Members, string(id))
	}

	for _, id := range members {
		evs, evDropped, spans, spDropped, stats, ok := n.collectFrom(ctx, id, job)
		if !ok {
			continue
		}
		b.Events = append(b.Events, evs...)
		b.EventsDropped += evDropped
		b.Spans = append(b.Spans, spans...)
		b.SpansDropped += spDropped
		b.Metrics = append(b.Metrics, stats)
	}

	// Journal state lives in the DHT file system, not on any one node;
	// one replicated read covers the cluster. Skipped on error for the
	// same reason unreachable members are.
	if snaps, err := mapreduce.JournalSnapshots(ctx, n.fs, job); err == nil {
		for _, s := range snaps {
			b.Journal = append(b.Journal, bundle.JournalState{
				Job: s.Job, Phase: s.Phase, Generation: s.Generation,
				MapsDone: s.MapsDone, PartsDone: s.PartsDone, Attempts: s.Attempts,
			})
		}
	}
	return b, nil
}

// collectFrom gathers one member's events, spans and metrics. The local
// node short-circuits to in-process reads; remote members that fail any
// of the three calls are dropped wholesale (ok=false) so a half-answered
// node cannot skew the capture.
func (n *Node) collectFrom(ctx context.Context, id hashing.NodeID, job string) (
	evs []events.Event, evDropped int64, spans []trace.Span, spDropped int64,
	stats bundle.NodeMetrics, ok bool) {
	if id == n.ID {
		return n.events.Events(job, 0), n.events.Dropped(),
			n.tracer.Spans(job), n.tracer.Dropped(),
			bundle.NodeMetrics{Node: string(n.ID), Values: n.MetricsSnapshot().Values}, true
	}
	var er EventsResp
	if err := n.callCtx(ctx, id, MethodEvents, EventsReq{Job: job}, &er); err != nil {
		return nil, 0, nil, 0, bundle.NodeMetrics{}, false
	}
	var sr SpansResp
	if err := n.callCtx(ctx, id, MethodSpans, SpansReq{Trace: job}, &sr); err != nil {
		return nil, 0, nil, 0, bundle.NodeMetrics{}, false
	}
	var mr StatsResp
	if err := n.callCtx(ctx, id, MethodStats, ack{}, &mr); err != nil {
		return nil, 0, nil, 0, bundle.NodeMetrics{}, false
	}
	return er.Events, er.Dropped, sr.Spans, sr.Dropped,
		bundle.NodeMetrics{Node: string(id), Values: mr.Metrics.Values}, true
}

// BuildBundleBytes is BuildBundle canonically encoded (the form served
// over cluster.bundle and written to disk).
func (n *Node) BuildBundleBytes(ctx context.Context, job, reason string) ([]byte, error) {
	b, err := n.BuildBundle(ctx, job, reason)
	if err != nil {
		return nil, err
	}
	return bundle.Encode(b)
}

// WriteBundleFile captures a bundle into <dir>/BundleFileName(job,
// reason), creating dir if needed, and returns the written path.
// Deterministic naming overwrites an earlier capture of the same (job,
// reason) — the latest state of an incident is the one worth keeping.
func (n *Node) WriteBundleFile(ctx context.Context, dir, job, reason string) (string, error) {
	data, err := n.BuildBundleBytes(ctx, job, reason)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, BundleFileName(job, reason))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// captureBundle is the manager role's armed flight recorder: snapshot the
// cluster into <dir>/bundle-<job>-<reason>.json from this node. Capture
// errors are counted rather than surfaced, because the recorder fires on
// paths that are already failing.
func (n *Node) captureBundle(dir, job, reason string) {
	//lint:ignore ctxflow the driver's flight-recorder hook carries no context; the capture belongs to no request
	if _, err := n.WriteBundleFile(context.Background(), dir, job, reason); err != nil {
		n.worker.Metrics().Counter("bundle.capture_errors").Inc()
		return
	}
	n.worker.Metrics().Counter("bundle.captured").Inc()
}

// BundleFileName maps (job, reason) onto one flat, filesystem-safe name.
func BundleFileName(job, reason string) string {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '-', r == '_', r == '.':
				return r
			default:
				return '_'
			}
		}, s)
	}
	if job == "" {
		job = "all"
	}
	return fmt.Sprintf("bundle-%s-%s.json", clean(job), clean(reason))
}

// Health is one node's liveness summary, served on the private metrics
// mux as /healthz and /readyz.
type Health struct {
	Node string
	// Ready reports the node has adopted a membership view that contains
	// it — it can place blocks and receive tasks.
	Ready   bool
	Manager string
	Epoch   uint64
	Members int
	// EventsDropped / SpansDropped count ring overwrites: rising values
	// mean the flight recorder's history window is shorter than the
	// incident being debugged.
	EventsDropped int64
	SpansDropped  int64
}

// Health snapshots the node's liveness summary.
func (n *Node) Health() Health {
	n.mu.Lock()
	view := n.view
	manager := n.manager
	n.mu.Unlock()
	_, inView := view.Members[n.ID]
	return Health{
		Node:          string(n.ID),
		Ready:         inView,
		Manager:       string(manager),
		Epoch:         view.Epoch,
		Members:       len(view.Members),
		EventsDropped: n.events.Dropped(),
		SpansDropped:  n.tracer.Dropped(),
	}
}
