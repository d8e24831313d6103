// Package bundle defines the debug-bundle format: one JSON artifact
// capturing everything needed to explain a job after the fact — the
// merged structured-event timeline, per-node metrics snapshots, trace
// spans, durable journal state, and the ring/membership view. Bundles
// are produced by the flight recorder (automatically on job failure or
// recovery), by `eclipse-cli debug bundle` on demand, and by the
// simulator's capture hook; cmd/bundlecheck validates them in CI so a
// malformed capture fails the build, not the person debugging at 3am.
package bundle

import (
	"encoding/json"
	"fmt"
	"sort"

	"eclipsemr/internal/events"
	"eclipsemr/internal/trace"
)

// Version is the current bundle schema version. Events carry their kind
// as a number, so removing a kind renumbers the later ones and bumps the
// version: 2 removed kind 2, "spec", and moved shuffle to journal down one.
const Version = 2

// NodeMetrics is one node's flat metrics snapshot (counters and gauges;
// histogram internals stay in /metrics).
type NodeMetrics struct {
	Node   string           `json:"node"`
	Values map[string]int64 `json:"values"`
}

// JournalState summarizes one job's durable journal at capture time.
type JournalState struct {
	Job        string `json:"job"`
	Phase      string `json:"phase"` // map | reduce | done
	Generation int    `json:"generation"`
	MapsDone   int    `json:"maps_done"`
	PartsDone  int    `json:"parts_done"`
	Attempts   int    `json:"attempts"`
}

// Membership is the capturing node's view of the ring.
type Membership struct {
	Manager string   `json:"manager"`
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
}

// Bundle is the top-level artifact. Every section is always present
// (possibly empty) so readers and the validator need no feature
// detection.
type Bundle struct {
	Version   int    `json:"version"`
	Reason    string `json:"reason"` // what triggered the capture
	Node      string `json:"node"`   // capturing node
	Job       string `json:"job"`    // "" for a cluster-wide capture
	CreatedNS int64  `json:"created_ns"`

	Events        []events.Event `json:"events"`
	EventsDropped int64          `json:"events_dropped"`
	Metrics       []NodeMetrics  `json:"metrics"`
	Spans         []trace.Span   `json:"spans"`
	SpansDropped  int64          `json:"spans_dropped"`
	Journal       []JournalState `json:"journal"`
	Membership    Membership     `json:"membership"`
}

// Encode canonicalizes and serializes a bundle: events merged into their
// deterministic order, spans deduped, metrics and journal entries sorted,
// members sorted. Encoding the same capture twice yields identical bytes.
func Encode(b *Bundle) ([]byte, error) {
	if b.Version == 0 {
		b.Version = Version
	}
	b.Events = events.Merge(b.Events)
	b.Spans = trace.Dedupe(b.Spans)
	sort.Slice(b.Metrics, func(i, j int) bool { return b.Metrics[i].Node < b.Metrics[j].Node })
	sort.Slice(b.Journal, func(i, j int) bool { return b.Journal[i].Job < b.Journal[j].Job })
	sort.Strings(b.Membership.Members)
	// Non-nil empty sections, so the JSON always carries every key.
	if b.Events == nil {
		b.Events = []events.Event{}
	}
	if b.Metrics == nil {
		b.Metrics = []NodeMetrics{}
	}
	if b.Spans == nil {
		b.Spans = []trace.Span{}
	}
	if b.Journal == nil {
		b.Journal = []JournalState{}
	}
	if b.Membership.Members == nil {
		b.Membership.Members = []string{}
	}
	return json.MarshalIndent(b, "", " ")
}

// Decode parses a bundle without validating it.
func Decode(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bundle: not valid JSON: %w", err)
	}
	return &b, nil
}

// journalPhases are the phases Validate accepts.
var journalPhases = map[string]bool{"map": true, "reduce": true, "done": true}

// Validate checks a serialized bundle against the schema as
// cmd/bundlecheck (and the deterministic e2e) understand it: every
// section present, a known version, a stated reason, at least one event
// in canonical merged order, at least one per-node metrics snapshot, a
// coherent membership view, and well-formed journal entries.
func Validate(data []byte) error {
	// Section presence is checked on the raw object: a struct decode
	// would silently default a missing section.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("bundle: not valid JSON: %w", err)
	}
	for _, section := range []string{
		"version", "reason", "node", "created_ns",
		"events", "metrics", "spans", "journal", "membership",
	} {
		if _, ok := raw[section]; !ok {
			return fmt.Errorf("bundle: missing section %q", section)
		}
	}
	b, err := Decode(data)
	if err != nil {
		return err
	}
	if b.Version != Version {
		return fmt.Errorf("bundle: version %d, want %d", b.Version, Version)
	}
	if b.Reason == "" {
		return fmt.Errorf("bundle: empty reason")
	}
	if b.CreatedNS < 0 {
		return fmt.Errorf("bundle: negative created_ns")
	}
	if len(b.Events) == 0 {
		return fmt.Errorf("bundle: no events (a flight recorder that recorded nothing)")
	}
	for i, e := range b.Events {
		if !e.Kind.Valid() {
			return fmt.Errorf("bundle: event %d: unknown kind %d", i, e.Kind)
		}
		if e.Name == "" {
			return fmt.Errorf("bundle: event %d: empty name", i)
		}
		if e.Node == "" {
			return fmt.Errorf("bundle: event %d (%s): empty node", i, e.Name)
		}
	}
	if merged := events.Merge(b.Events); len(merged) != len(b.Events) {
		return fmt.Errorf("bundle: events contain duplicates (%d after merge, %d in file)",
			len(merged), len(b.Events))
	} else {
		for i := range merged {
			if merged[i] != b.Events[i] {
				return fmt.Errorf("bundle: events not in canonical merge order (first divergence at %d)", i)
			}
		}
	}
	if len(b.Metrics) == 0 {
		return fmt.Errorf("bundle: no metrics snapshots")
	}
	for i, m := range b.Metrics {
		if m.Node == "" {
			return fmt.Errorf("bundle: metrics entry %d: empty node", i)
		}
	}
	for i, s := range b.Spans {
		if s.Name == "" {
			return fmt.Errorf("bundle: span %d: empty name", i)
		}
		if s.DurNS < 0 {
			return fmt.Errorf("bundle: span %d (%s): negative duration", i, s.Name)
		}
	}
	for i, j := range b.Journal {
		if j.Job == "" {
			return fmt.Errorf("bundle: journal entry %d: empty job", i)
		}
		if !journalPhases[j.Phase] {
			return fmt.Errorf("bundle: journal entry %d (%s): unknown phase %q", i, j.Job, j.Phase)
		}
	}
	if len(b.Membership.Members) == 0 {
		return fmt.Errorf("bundle: empty membership view")
	}
	if b.Membership.Manager != "" {
		found := false
		for _, m := range b.Membership.Members {
			if m == b.Membership.Manager {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("bundle: manager %s not in membership view", b.Membership.Manager)
		}
	}
	return nil
}
