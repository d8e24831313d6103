package transport

import (
	"context"
	"time"
)

// sleepCtx waits for d or until ctx is cancelled, whichever comes first,
// returning ctx.Err() in the cancelled case. The transport's waits —
// retry backoff, chaos-injected latency — must all go through this
// rather than time.Sleep: a caller that cancels (a job being torn down)
// has to get its goroutine back immediately, not after the tail of an
// exponential backoff.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
