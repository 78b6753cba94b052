package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"wspeer/internal/telemetry"
)

// Telemetry handles for the stock interceptors, bound once at init so the
// hot path is an atomic add with no registry lookup.
var (
	mDeadlineExpired = telemetry.Default().Meter.Counter("pipeline.deadline.expired")
	mRetryAttempts   = telemetry.Default().Meter.Counter("pipeline.retry.attempts")
	mRetryRetries    = telemetry.Default().Meter.Counter("pipeline.retry.retries")
	mRetryPreCancel  = telemetry.Default().Meter.Counter("pipeline.retry.precancelled")
	mRetryBudgetDeny = telemetry.Default().Meter.Counter("pipeline.retry.budget_denied")
)

// RetryBudget is the retransmission token bucket Retry and Hedge draw
// from. It is an interface here so the pipeline stays free of a
// dependency on the resilience package; resilience.RetryBudget is the
// stock implementation.
type RetryBudget interface {
	// TryDraw spends one token, reporting whether the retransmission may
	// proceed.
	TryDraw() bool
	// Credit rewards one successful call with a fraction of a token.
	Credit()
}

// RetryAfterHinter is implemented by errors that carry the server's
// advertised backoff (resilience.OverloadError, the HTTP transport's
// 503 status error, an overload's soap.Fault on any binding). Retry
// floors its next delay on the hint so clients honor the server's advice
// instead of hammering it on their own schedule.
type RetryAfterHinter interface {
	RetryAfterHint() time.Duration
}

// MetaRetryBudget is the Meta key carrying the call's RetryBudget; core
// sets it from the client's configured budget so every Retry/Hedge stage
// in the chain spends from one pool.
const MetaRetryBudget = "pipeline.retry.budget"

// callBudget resolves the budget a stage should draw from: the
// explicitly configured one, else the carrier's.
func callBudget(c *Call, configured RetryBudget) RetryBudget {
	if configured != nil {
		return configured
	}
	b, _ := c.GetMeta(MetaRetryBudget).(RetryBudget)
	return b
}

// MetaRetries is the Meta key counting retransmissions beyond a call's
// first attempt (int; absent until the first retransmission). Retry
// stamps it, the flight recorder reads it back through RetryCount.
const MetaRetries = "pipeline.retry.count"

// RetryCount returns how many times the call was retransmitted (0 when
// it succeeded or failed on the first attempt).
func RetryCount(c *Call) int {
	v, _ := c.GetMeta(MetaRetries).(int)
	return v
}

// MetaIdempotent is the Meta key that marks a call as safe to retry. The
// stock Retry interceptor's default policy only retransmits calls carrying
// it (see Idempotent); callers that know better supply their own Retryable.
const MetaIdempotent = "pipeline.idempotent"

// MarkIdempotent flags the call as safe to retransmit.
func MarkIdempotent(c *Call) { c.SetMeta(MetaIdempotent, true) }

// Idempotent reports whether the call is flagged safe to retransmit.
func Idempotent(c *Call) bool {
	v, _ := c.GetMeta(MetaIdempotent).(bool)
	return v
}

// Deadline returns an interceptor enforcing a per-call timeout: the
// remainder of the stack runs under a context that expires d after the
// call enters this stage. An already-expired context short-circuits
// without reaching the terminal. Non-positive d disables enforcement.
// Expirations are surfaced through the telemetry spine (the
// "pipeline.deadline.expired" counter) and annotated on the call's span.
func Deadline(d time.Duration) Interceptor {
	return func(next CallFunc) CallFunc {
		return func(c *Call) error {
			if d <= 0 {
				return next(c)
			}
			ctx, cancel := context.WithTimeout(c.Ctx, d)
			defer cancel()
			parent := c.Ctx
			c.Ctx = ctx
			defer func() { c.Ctx = parent }()
			if err := ctx.Err(); err != nil {
				mDeadlineExpired.Inc()
				c.Span.Annotate("deadline: expired before dispatch")
				return err
			}
			err := next(c)
			// Attribute timeout-shaped failures to this stage's deadline
			// so callers see DeadlineExceeded rather than a transport's
			// private wrapping of it.
			if err != nil && ctx.Err() != nil && parent.Err() == nil {
				mDeadlineExpired.Inc()
				c.Span.Annotate("deadline: exceeded")
				return ctx.Err()
			}
			return err
		}
	}
}

// RetryOptions tunes the Retry interceptor. The zero value means 3
// attempts, 10ms base delay, 1s cap, half-width jitter, and the default
// idempotent-only policy.
type RetryOptions struct {
	// Attempts is the total number of tries, including the first
	// (default 3; values below 1 behave as 1).
	Attempts int
	// BaseDelay is the backoff before the first retry (default 10ms);
	// each subsequent retry doubles it up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 1s).
	MaxDelay time.Duration
	// Jitter is the fraction of each delay randomized away (0..1,
	// default 0.5): delay' = delay * (1 - Jitter*rand).
	Jitter float64
	// Retryable decides whether a failed attempt is retried. The default
	// retries any error except context cancellation/expiry, and only for
	// calls flagged with MarkIdempotent — retransmitting a non-idempotent
	// operation can execute it twice.
	Retryable func(c *Call, err error) bool
	// Budget, when set, gates every retransmission: a retry only proceeds
	// if Budget.TryDraw() grants a token, and each overall success credits
	// a fraction back. Nil falls back to the budget on the call's Meta
	// (MetaRetryBudget, wired by core); with neither, retries are
	// unbudgeted as before.
	Budget RetryBudget
	// sleep is a test seam; nil means a real timer honoring c.Ctx.
	sleep func(ctx context.Context, d time.Duration) error
}

func defaultRetryable(c *Call, err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return Idempotent(c)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Retry returns an interceptor that retransmits failed calls with
// exponential backoff and jitter. Between attempts the carrier's Response
// and Err are cleared so each attempt runs the inner stack clean. The
// default policy is idempotent-safe: see RetryOptions.Retryable.
//
// Attempts are visible to callers through the spine: every attempt counts
// on "pipeline.retry.attempts", attempts beyond the first on
// "pipeline.retry.retries", calls refused before their first attempt
// because the context was already cancelled on
// "pipeline.retry.precancelled" (the pre-cancel case was previously
// invisible to every observer), and each retransmission is annotated on
// the call's span.
func Retry(opts RetryOptions) Interceptor {
	if opts.Attempts < 1 {
		opts.Attempts = 3
	}
	if opts.BaseDelay <= 0 {
		opts.BaseDelay = 10 * time.Millisecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = time.Second
	}
	if opts.Jitter < 0 || opts.Jitter > 1 {
		opts.Jitter = 0.5
	}
	if opts.Retryable == nil {
		opts.Retryable = defaultRetryable
	}
	if opts.sleep == nil {
		opts.sleep = sleepCtx
	}
	return func(next CallFunc) CallFunc {
		return func(c *Call) error {
			// A cancelled call gets no first attempt: the caller has
			// already given up, and the terminal may not check promptly.
			if c.Ctx != nil {
				if err := c.Ctx.Err(); err != nil {
					mRetryPreCancel.Inc()
					c.Span.Annotate("retry: refused, context cancelled before first attempt")
					return err
				}
			}
			budget := callBudget(c, opts.Budget)
			delay := opts.BaseDelay
			var err error
			for attempt := 1; ; attempt++ {
				c.Response = nil
				c.Err = nil
				mRetryAttempts.Inc()
				err = next(c)
				if err == nil {
					if opts.Budget != nil {
						// An explicitly configured budget is owned by this
						// stage, so successes credit here. A Meta-carried
						// budget is credited once per logical call by the
						// layer that installed it (core), not per stage.
						opts.Budget.Credit()
					}
					return nil
				}
				if attempt >= opts.Attempts || !opts.Retryable(c, err) {
					return err
				}
				if budget != nil && !budget.TryDraw() {
					mRetryBudgetDeny.Inc()
					c.Span.Annotate("retry: budget exhausted, not retransmitting")
					return err
				}
				mRetryRetries.Inc()
				// Count of retransmissions beyond the first attempt, read by
				// the flight recorder when the logical call completes. Small
				// ints box without allocating, and this is the cold path.
				c.SetMeta(MetaRetries, attempt)
				if c.Span != nil {
					c.Span.Annotatef("retry: attempt %d failed: %v", attempt, err)
				}
				d := delay
				if opts.Jitter > 0 {
					d -= time.Duration(opts.Jitter * rand.Float64() * float64(delay))
				}
				// Honor a server-advertised backoff (Retry-After on a 503,
				// an overload fault's retryAfterSeconds) as the floor: the
				// server knows its queue better than our schedule does.
				var hinter RetryAfterHinter
				if errors.As(err, &hinter) {
					if hint := hinter.RetryAfterHint(); hint > d {
						d = hint
					}
				}
				if serr := opts.sleep(c.Ctx, d); serr != nil {
					return err // context gave out while backing off
				}
				delay *= 2
				if delay > opts.MaxDelay {
					delay = opts.MaxDelay
				}
			}
		}
	}
}

// Events returns an interceptor that reports every completed call to one
// observer — the single choke point the event tree hangs off. The carrier
// reaches the observer with Err recorded; with Events installed outermost
// (core and the bindings install it first) one event fires per logical
// call regardless of inner retries.
func Events(observe func(c *Call)) Interceptor {
	return func(next CallFunc) CallFunc {
		return func(c *Call) error {
			err := next(c)
			c.Err = err
			observe(c)
			return err
		}
	}
}
