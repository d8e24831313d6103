package trace

import (
	"context"
	"time"

	"eclipsemr/internal/metrics"
)

// Stage is one timed stage of a task: its span, nil when the stage is not
// traced, and the histogram that summarizes the stage. One pair of clock
// reads times both, so the histogram holds exactly its spans' durations,
// one per End, whichever way the stage exits.
type Stage struct {
	*Span
	tr    *Tracer
	h     *metrics.Histogram
	start time.Time
}

// StartStage begins the stage name, timed into h, as StartSpan begins a
// span. Untraced, it returns ctx unchanged and allocates nothing; a nil
// tracer times on the wall clock. The clock is read once the span is
// built, so the stage's time leaves out the tracer's own work. End the
// stage exactly once:
//
//	ctx, st := t.StartStage(ctx, "map.read", reg.Histogram("mr.map.read_ns"))
//	defer st.End()
func (t *Tracer) StartStage(ctx context.Context, name string, h *metrics.Histogram) (context.Context, Stage) {
	ctx, sp := t.StartSpanAt(ctx, name, 0)
	st := Stage{Span: sp, tr: t, h: h, start: t.now()}
	if sp != nil {
		sp.StartNS = st.start.UnixNano()
	}
	return ctx, st
}

// End records the stage's duration into its histogram and ends its span
// at the same instant, before the span is published.
func (s Stage) End() {
	d := max(s.tr.now().Sub(s.start), 0)
	s.h.ObserveDuration(d)
	if s.Span != nil {
		s.endAt(s.StartNS + int64(d))
	}
}

// now reads the tracer's clock, or the wall clock on a nil tracer.
func (t *Tracer) now() time.Time {
	if t == nil {
		return time.Now()
	}
	return t.clock.Now()
}
