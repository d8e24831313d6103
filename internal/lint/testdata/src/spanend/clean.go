package spanend

import (
	"context"

	"eclipsemr/internal/metrics"
	"eclipsemr/internal/trace"
)

// deferred is the sanctioned shape: the span ends on every path.
func deferred(t *trace.Tracer, ctx context.Context) {
	ctx, sp := t.StartSpan(ctx, "task.map")
	defer sp.End()
	work(ctx)
}

// deferredStage times a stage into its histogram and ends it on every
// path.
func deferredStage(t *trace.Tracer, ctx context.Context, h *metrics.Histogram) {
	ctx, st := t.StartStage(ctx, "fs.read_block", h)
	defer st.End()
	st.Annotate("failover", "worker-01")
	work(ctx)
}

// direct ends the span inline before an error check, as the read-stage
// instrumentation does.
func direct(t *trace.Tracer, ctx context.Context) error {
	_, sp := t.StartSpan(ctx, "map.read")
	err := readBlock()
	sp.End()
	if err != nil {
		return err
	}
	return nil
}

// branches ends the span on each arm; one End reference is enough for
// the analyzer — path-sensitivity is the reviewer's job.
func branches(t *trace.Tracer, ctx context.Context, hit bool) {
	_, sp := t.StartSpan(ctx, "cache.get")
	if hit {
		sp.Annotate("cache", "hit")
		sp.End()
		return
	}
	sp.Annotate("cache", "miss")
	sp.End()
}

// closureEnd finishes the span from a goroutine's closure.
func closureEnd(t *trace.Tracer, ctx context.Context, done chan struct{}) {
	_, sp := t.StartSpan(ctx, "shuffle.recv")
	go func() {
		<-done
		sp.End()
	}()
}

// returned hands the span to the caller, which owns ending it.
func returned(t *trace.Tracer, ctx context.Context) (context.Context, *trace.Span) {
	return t.StartSpan(ctx, "reduce.compute")
}

// passedOn escapes the span into a helper that ends it.
func passedOn(t *trace.Tracer, ctx context.Context) {
	_, sp := t.StartSpan(ctx, "reduce.write")
	finish(sp)
}

// stored escapes the span into a struct that outlives the function.
type pending struct{ sp *trace.Span }

func stored(t *trace.Tracer, ctx context.Context, p *pending) {
	_, sp := t.StartSpan(ctx, "fs.write_block")
	p.sp = sp
}

func finish(sp *trace.Span) { sp.End() }

func work(context.Context) {}

func readBlock() error { return nil }
