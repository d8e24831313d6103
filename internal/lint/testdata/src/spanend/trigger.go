// Package spanend is golden input for the spanend analyzer.
package spanend

import (
	"context"

	"eclipsemr/internal/metrics"
	"eclipsemr/internal/trace"
)

// discarded drops the Start result on the floor: neither the context
// nor the span survives the statement, so End can never run.
func discarded(t *trace.Tracer, ctx context.Context) {
	t.StartRoot(ctx, "job-1", "driver.job") // want "discarded"
}

// blankSpan keeps the context but throws the span away.
func blankSpan(t *trace.Tracer, ctx context.Context) context.Context {
	ctx, _ = t.StartSpan(ctx, "map.read") // want "blank identifier"
	return ctx
}

// leaked binds the span but never ends it: the only uses are method
// calls that do not finish it, so it never reaches the ring buffer.
func leaked(t *trace.Tracer, ctx context.Context) {
	_, sp := t.StartSpan(ctx, "map.compute") // want "never ended"
	sp.Annotate("cache", "miss")
}

// leakedAt is the same hole through the reconstructed-start variant.
func leakedAt(t *trace.Tracer, ctx context.Context) {
	_, sp := t.StartSpanAt(ctx, "sched.queue_wait", 100) // want "never ended"
	sp.Annotate("task", "t1")
	sp.Eventf("retry attempt=%d", 1)
}

// blankStage throws a stage away: neither its span nor its histogram is
// ever recorded.
func blankStage(t *trace.Tracer, ctx context.Context, h *metrics.Histogram) context.Context {
	ctx, _ = t.StartStage(ctx, "shuffle.recv", h) // want "blank identifier"
	return ctx
}

// leakedStage annotates a stage and returns without ending it, as a
// stage whose End sits after an early return would.
func leakedStage(t *trace.Tracer, ctx context.Context, h *metrics.Histogram) {
	_, st := t.StartStage(ctx, "reduce.compute", h) // want "never ended"
	st.Annotate("partition", "p0000")
}
