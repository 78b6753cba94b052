package pipeline

import (
	"context"
	"time"

	"wspeer/internal/telemetry"
)

var (
	mHedgeLaunched = telemetry.Default().Meter.Counter("pipeline.hedge.launched")
	mHedgeWins     = telemetry.Default().Meter.Counter("pipeline.hedge.wins")
	mHedgeDenied   = telemetry.Default().Meter.Counter("pipeline.hedge.denied")
)

// MetaHedgeAttempt is the Meta key carrying an attempt's index (int,
// 0 for the primary). Terminals that fan attempts across endpoints read
// it with HedgeAttempt to pick a distinct target per attempt.
const MetaHedgeAttempt = "pipeline.hedge.attempt"

// HedgeAttempt returns the call's hedge attempt index: 0 for the primary
// attempt (or any call that never passed through Hedge), 1 for the first
// hedge, and so on.
func HedgeAttempt(c *Call) int {
	v, _ := c.GetMeta(MetaHedgeAttempt).(int)
	return v
}

// MetaHedges is the Meta key counting the hedge attempts a logical call
// launched beyond its primary (int; absent when it never hedged). Hedge
// stamps it on the shared carrier as the race settles; the flight
// recorder reads it back through HedgesLaunched.
const MetaHedges = "pipeline.hedge.count"

// HedgesLaunched returns how many hedge attempts the call launched (0
// for unhedged calls).
func HedgesLaunched(c *Call) int {
	v, _ := c.GetMeta(MetaHedges).(int)
	return v
}

// HedgeOptions tunes the Hedge interceptor.
type HedgeOptions struct {
	// Threshold is how long the primary attempt may run before a hedge is
	// launched (default 50ms). Ignored when ThresholdFunc is set.
	Threshold time.Duration
	// ThresholdFunc, when set, derives the threshold per call — typically
	// from observed tail latency (core seeds it with the service's client
	// p99 from the telemetry call table). A non-positive return falls back
	// to Threshold.
	ThresholdFunc func(c *Call) time.Duration
	// MaxHedges caps the extra attempts beyond the primary (default 1).
	MaxHedges int
	// Budget, when set, gates every hedge launch: a hedge only starts if
	// Budget.TryDraw() grants a token, so hedges and retries spend from
	// the same pool and tail-chasing cannot become a load multiplier. Nil
	// falls back to the call's Meta budget (MetaRetryBudget); with
	// neither, hedges are unbudgeted.
	Budget RetryBudget
	// Hedgeable decides whether a call may hedge at all. The default
	// hedges only calls flagged with MarkIdempotent — a hedge is a
	// retransmission that can execute the operation twice.
	Hedgeable func(c *Call) bool
}

// Hedge returns an interceptor that races a second attempt against a
// slow primary: when the primary has neither succeeded nor failed after
// the threshold, a hedge attempt runs the remainder of the stack on a
// cloned carrier, and the first success wins (losers are cancelled). A
// failed attempt also triggers the next hedge immediately — waiting out
// the threshold after a fast failure would only add latency.
//
// Hedging trades duplicate work for tail latency, so it is bounded
// twice: MaxHedges caps the fan-out and Budget (shared with Retry) caps
// the aggregate retransmission volume. Launches, wins and budget denials
// are visible on the spine as "pipeline.hedge.launched" / ".wins" /
// ".denied".
func Hedge(opts HedgeOptions) Interceptor {
	if opts.Threshold <= 0 {
		opts.Threshold = 50 * time.Millisecond
	}
	if opts.MaxHedges < 1 {
		opts.MaxHedges = 1
	}
	if opts.Hedgeable == nil {
		opts.Hedgeable = Idempotent
	}
	return func(next CallFunc) CallFunc {
		return func(c *Call) error {
			if !opts.Hedgeable(c) {
				return next(c)
			}
			threshold := opts.Threshold
			if opts.ThresholdFunc != nil {
				if d := opts.ThresholdFunc(c); d > 0 {
					threshold = d
				}
			}
			return runHedged(c, next, threshold, opts)
		}
	}
}

// hedgeResult is one attempt's outcome.
type hedgeResult struct {
	call    *Call
	attempt int
	err     error
}

func runHedged(c *Call, next CallFunc, threshold time.Duration, opts HedgeOptions) error {
	base := c.Ctx
	if base == nil {
		base = context.Background()
	}
	budget := callBudget(c, opts.Budget)
	maxAttempts := opts.MaxHedges + 1

	// Every attempt runs on its own clone under its own cancelable child
	// of the caller's context; results funnel into one buffered channel so
	// losers never block on send.
	results := make(chan hedgeResult, maxAttempts)
	cancels := make([]context.CancelFunc, 0, maxAttempts)
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()

	launch := func(attempt int) {
		ctx, cancel := context.WithCancel(base)
		cancels = append(cancels, cancel)
		cp := c.Clone(ctx)
		cp.SetMeta(MetaHedgeAttempt, attempt)
		if attempt > 0 {
			mHedgeLaunched.Inc()
			c.Span.Annotatef("hedge: launching attempt %d after %s", attempt, threshold)
		}
		go func() {
			err := next(cp)
			results <- hedgeResult{call: cp, attempt: attempt, err: err}
		}()
	}

	// tryLaunch starts the next attempt if the fan-out and budget allow.
	launched := 0
	tryLaunch := func() bool {
		if launched >= maxAttempts {
			return false
		}
		if launched > 0 && budget != nil && !budget.TryDraw() {
			mHedgeDenied.Inc()
			c.Span.Annotate("hedge: budget exhausted, not hedging")
			launched = maxAttempts // no budget now → don't keep asking
			return false
		}
		launch(launched)
		launched++
		return true
	}

	outstanding := 0
	if tryLaunch() { // primary, never budget-gated
		outstanding++
	}

	timer := time.NewTimer(threshold)
	defer timer.Stop()

	finish := func(res hedgeResult) error {
		// Copy the winning attempt's carrier state back onto the shared
		// Call so downstream interceptors and the caller see one coherent
		// outcome regardless of which attempt produced it.
		c.Request = res.call.Request
		c.Response = res.call.Response
		res.call.eachMeta(func(k string, v interface{}) {
			if k != MetaHedgeAttempt {
				c.SetMeta(k, v)
			}
		})
		if launched > 1 {
			c.SetMeta(MetaHedges, launched-1)
		}
		if res.err == nil && res.attempt > 0 {
			mHedgeWins.Inc()
			c.Span.Annotatef("hedge: attempt %d won", res.attempt)
		}
		return res.err
	}

	var firstErr *hedgeResult
	for {
		select {
		case <-timer.C:
			// The attempts in flight are slow: race another against them,
			// and rearm so each further threshold can add the next (when
			// MaxHedges allows more than one).
			if tryLaunch() {
				outstanding++
				timer.Reset(threshold)
			}
		case res := <-results:
			if res.err == nil {
				return finish(res)
			}
			outstanding--
			if firstErr == nil {
				firstErr = &res
			}
			// A failure frees capacity: launch the next hedge now rather
			// than waiting out the timer.
			if tryLaunch() {
				outstanding++
			}
			if outstanding == 0 {
				return finish(*firstErr)
			}
		case <-base.Done():
			// The caller gave up; attempts are cancelled by the deferred
			// cancels and their sends land in the buffered channel.
			return base.Err()
		}
	}
}
