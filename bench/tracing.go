package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"eclipsemr/internal/trace"
)

// traceMetrics collects the engine's spans of the traced half, reports
// self time per engine span name and the tracing overhead against the
// untraced half, and writes every span (the runner's and the engine's) to
// out/trace-<workload>.json in Chrome trace-event format.
func (r *run) traceMetrics(ctx context.Context, untraced, traced phase) (map[string]float64, error) {
	m := make(map[string]float64)
	spans, dropped, err := r.h.c.TraceSpansContext(ctx, "")
	if err != nil {
		return nil, fmt.Errorf("collect spans: %w", err)
	}
	_, eventsDropped, err := r.h.c.EventsContext(ctx, "")
	if err != nil {
		return nil, fmt.Errorf("collect events: %w", err)
	}
	m["trace.spans"] = float64(len(spans))
	m["trace.dropped"] = float64(dropped)
	m["trace.events_dropped"] = float64(eventsDropped)
	if base := untraced.scaled(r.cal).mibPerSec(); base > 0 {
		m["trace.overhead_pct"] = (base - traced.scaled(r.cal).mibPerSec()) / base * 100
	}
	self := selfTimes(spans)
	for _, name := range engineSpans {
		m["trace.self."+name+"_s"] = float64(self[name]) / 1e9
	}

	// The runner's spans join the export as one more "node".
	for _, s := range r.h.rec.kept() {
		spans = append(spans, trace.Span{
			Trace: runnerNode, ID: s.id, Name: s.name, Node: runnerNode,
			StartNS: s.start.UnixNano(), DurNS: int64(s.end.Sub(s.start)),
		})
	}
	data, err := trace.ChromeTrace(spans)
	if err != nil {
		return nil, fmt.Errorf("export trace: %w", err)
	}
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(r.cfg.outDir, "trace-"+r.cfg.workload+".json"), data, 0o644); err != nil {
		return nil, err
	}
	return m, nil
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover (children clipped to the parent
// and overlapping children counted once).
func selfTimes(spans []trace.Span) map[string]int64 {
	children := make(map[trace.SpanID][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].StartNS < spans[kids[j]].StartNS })
		start, end := s.StartNS, s.StartNS+s.DurNS
		covered, reach := int64(0), start
		for _, k := range kids {
			ks, ke := spans[k].StartNS, spans[k].StartNS+spans[k].DurNS
			ks, ke = max(ks, reach), min(ke, end)
			if ke > ks {
				covered += ke - ks
				reach = ke
			}
		}
		self[s.Name] += s.DurNS - covered
	}
	return self
}
