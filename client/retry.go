package client

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// RetryPolicy makes a Client retry failed requests: connection-level
// failures (the server never answered) and 5xx responses, never 4xx — a
// request the server understood and rejected will be rejected again. The
// zero value disables retries; install one with WithRetryPolicy.
//
// Retries are at-least-once for requests that reached the server: a
// connection that dies after the server applied an update can replay the
// batch. Match and read traffic is safe to replay; callers replaying
// non-idempotent update batches should correlate by version (the sharded
// router checks each replica's healthz version against the one version it
// expects for exactly this reason).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included; values
	// below 2 disable retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 50ms); each
	// further retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// Jitter is the fraction of each delay that is re-drawn uniformly at
	// random in [1-Jitter, 1], in [0, 1] (default 0.5), so a fleet of
	// retrying clients spreads out instead of thundering back together.
	Jitter float64
}

// WithRetryPolicy installs a retry policy on the client. It applies to
// every endpoint method uniformly; streaming responses retry only until the
// response header arrives (a stream that dies mid-body is surfaced, not
// replayed).
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p }
}

func (p RetryPolicy) enabled() bool { return p.MaxAttempts >= 2 }

// delay computes the backoff before retry number retry (0-based).
func (p RetryPolicy) delay(retry int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base << retry
	if d <= 0 || d > max { // <= 0 guards shift overflow
		d = max
	}
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.5
	}
	if jitter < 0 {
		jitter = 0
	}
	if jitter > 1 {
		jitter = 1
	}
	scale := 1 - jitter*rand.Float64()
	return time.Duration(float64(d) * scale)
}

// retryableStatus reports whether a response status warrants a retry:
// server-side failures only, never client errors.
func retryableStatus(status int) bool { return status >= 500 }

// retryableError reports whether a transport error warrants a retry.
// Context expiry is the caller giving up, not the server failing.
func retryableError(err error) bool {
	return err != nil &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// discard drains and closes a response body that is about to be retried, so
// the underlying connection can be reused.
func discard(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, errorBodyLimit))
	resp.Body.Close()
}

// sleep waits d or until the context expires, reporting whether the wait
// completed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
