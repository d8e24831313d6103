package trace

import (
	"context"
	"testing"
	"time"

	"eclipsemr/internal/metrics"
)

// TestStageUntracedAllocatesNothing pins the cost of a stage nobody
// traces: with tracing off, and inside a trace the sampler dropped, a
// stage is two clock reads and a histogram add, and hands back the
// caller's context.
func TestStageUntracedAllocatesNothing(t *testing.T) {
	h := metrics.NewRegistry().Histogram("stage_ns")
	off := New("n0", Options{})
	sampled := New("n0", Options{SampleEvery: 1 << 30})
	sampled.SetEnabled(true)
	sctx, root := sampled.StartRoot(context.Background(), "job-1", "driver.job")
	if root != nil {
		t.Fatal("job-1 was kept; pick a trace ID the sampler drops")
	}
	for _, c := range []struct {
		name string
		tr   *Tracer
		ctx  context.Context
	}{{"off", off, context.Background()}, {"sampled-out", sampled, sctx}} {
		var got context.Context
		allocs := testing.AllocsPerRun(100, func() {
			var st Stage
			got, st = c.tr.StartStage(c.ctx, "map.read", h)
			st.End()
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per stage, want 0", c.name, allocs)
		}
		if got != c.ctx {
			t.Errorf("%s: StartStage replaced the context", c.name)
		}
	}
	if n := h.Snapshot().Count(); n != 202 {
		t.Fatalf("histogram count = %d, want one per End (202)", n)
	}
}

// TestNilTracerStageTimesWallClock: a worker or service built without a
// tracer still records real stage durations.
func TestNilTracerStageTimesWallClock(t *testing.T) {
	h := metrics.NewRegistry().Histogram("stage_ns")
	var tr *Tracer
	_, st := tr.StartStage(context.Background(), "reduce.write", h)
	time.Sleep(time.Millisecond)
	st.End()
	st.Annotate("k", "v") // no span: a no-op
	s := h.Snapshot()
	if s.Count() != 1 || s.Sum < int64(time.Millisecond) {
		t.Fatalf("count=%d sum=%v, want one observation of at least 1ms", s.Count(), time.Duration(s.Sum))
	}
}

// TestStageSpanIsItsObservation: a traced stage reads the clock twice,
// and its span's duration is exactly what its histogram received.
func TestStageSpanIsItsObservation(t *testing.T) {
	h := metrics.NewRegistry().Histogram("stage_ns")
	tr := New("n0", Options{Clock: tickClock(0, time.Millisecond)})
	tr.SetEnabled(true)
	ctx, root := tr.StartRoot(context.Background(), "job-1", "driver.job")
	sctx, st := tr.StartStage(ctx, "map.read", h)
	if Active(sctx) != st.Span || st.Parent != root.ID {
		t.Fatal("the stage's span is not the active child of the root")
	}
	st.Annotate("cache", "miss")
	st.End()
	root.End()

	spans := tr.Spans("job-1")
	var got *Span
	for i := range spans {
		if spans[i].Name == "map.read" {
			got = &spans[i]
		}
	}
	if got == nil {
		t.Fatalf("no map.read span among %d", len(spans))
	}
	s := h.Snapshot()
	if s.Count() != 1 || s.Sum != got.DurNS {
		t.Fatalf("histogram count=%d sum=%d, span DurNS=%d", s.Count(), s.Sum, got.DurNS)
	}
	// One read at the start, one at the end: the tick clock advanced once.
	if got.DurNS != int64(time.Millisecond) {
		t.Fatalf("DurNS = %v, want one clock tick (1ms)", time.Duration(got.DurNS))
	}
	if len(got.Annotations) != 1 || got.Annotations[0] != (Annotation{"cache", "miss"}) {
		t.Fatalf("annotations = %v", got.Annotations)
	}
}

// BenchmarkStage is one stage started and ended, with tracing off and
// inside a kept trace.
func BenchmarkStage(b *testing.B) {
	h := metrics.NewRegistry().Histogram("stage_ns")
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			tr := New("n0", Options{})
			tr.SetEnabled(on)
			ctx, root := tr.StartRoot(context.Background(), "job-1", "driver.job")
			defer root.End()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, st := tr.StartStage(ctx, "map.read", h)
				st.End()
			}
		})
	}
}
