package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wspeer/internal/soap"
	"wspeer/internal/transport"
)

// fakeBudget is a test RetryBudget with a fixed number of grantable
// tokens.
type fakeBudget struct {
	mu      sync.Mutex
	tokens  int
	draws   int
	denied  int
	credits int
}

func (b *fakeBudget) TryDraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		b.denied++
		return false
	}
	b.tokens--
	b.draws++
	return true
}

func (b *fakeBudget) Credit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.credits++
}

func (b *fakeBudget) counts() (draws, denied, credits int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draws, b.denied, b.credits
}

func hedgeCall() *Call {
	return &Call{Ctx: context.Background(), Dir: ClientCall, Service: "svc", Op: "op"}
}

func TestHedgeFastPrimaryNeverHedges(t *testing.T) {
	var attempts atomic.Int32
	fn := Compose(func(c *Call) error {
		attempts.Add(1)
		c.Response = &transport.Response{Body: []byte("primary")}
		return nil
	}, Hedge(HedgeOptions{Threshold: 50 * time.Millisecond, Hedgeable: func(*Call) bool { return true }}))
	c := hedgeCall()
	if err := fn(c); err != nil {
		t.Fatalf("fast primary: %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no hedge for a fast primary)", got)
	}
	if c.Response == nil || string(c.Response.Body) != "primary" {
		t.Fatalf("winner's response not copied back: %+v", c.Response)
	}
}

func TestHedgeSlowPrimaryRacedAndLoserCancelled(t *testing.T) {
	primaryCancelled := make(chan struct{})
	var attempts atomic.Int32
	fn := Compose(func(c *Call) error {
		n := attempts.Add(1)
		if HedgeAttempt(c) == 0 {
			_ = n
			// The primary hangs until its context is cancelled by the
			// hedge winning.
			<-c.Ctx.Done()
			close(primaryCancelled)
			return c.Ctx.Err()
		}
		c.Response = &transport.Response{Body: []byte("hedge")}
		return nil
	}, Hedge(HedgeOptions{Threshold: 5 * time.Millisecond, Hedgeable: func(*Call) bool { return true }}))
	c := hedgeCall()
	if err := fn(c); err != nil {
		t.Fatalf("hedged call: %v", err)
	}
	if string(c.Response.Body) != "hedge" {
		t.Fatalf("response = %q, want the hedge's", c.Response.Body)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
	select {
	case <-primaryCancelled:
	case <-time.After(2 * time.Second):
		t.Fatalf("losing primary was not cancelled")
	}
}

func TestHedgeDeniedByBudget(t *testing.T) {
	budget := &fakeBudget{tokens: 0}
	var attempts atomic.Int32
	fn := Compose(func(c *Call) error {
		attempts.Add(1)
		time.Sleep(30 * time.Millisecond) // slow enough to want a hedge
		c.Response = &transport.Response{Body: []byte("primary")}
		return nil
	}, Hedge(HedgeOptions{
		Threshold: time.Millisecond,
		Budget:    budget,
		Hedgeable: func(*Call) bool { return true },
	}))
	c := hedgeCall()
	if err := fn(c); err != nil {
		t.Fatalf("call: %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (hedge denied by budget)", got)
	}
	if _, denied, _ := budget.counts(); denied != 1 {
		t.Fatalf("denied = %d, want 1", denied)
	}
}

func TestHedgeFailureLaunchesNextImmediately(t *testing.T) {
	var attempts atomic.Int32
	start := time.Now()
	fn := Compose(func(c *Call) error {
		if attempts.Add(1) == 1 {
			return errors.New("fast failure")
		}
		c.Response = &transport.Response{Body: []byte("second")}
		return nil
	}, Hedge(HedgeOptions{Threshold: 5 * time.Second, Hedgeable: func(*Call) bool { return true }}))
	c := hedgeCall()
	if err := fn(c); err != nil {
		t.Fatalf("call: %v", err)
	}
	// The second attempt must have launched off the failure, not the 5s
	// threshold timer.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("second attempt waited for the timer (%v elapsed)", elapsed)
	}
	if string(c.Response.Body) != "second" {
		t.Fatalf("response = %q, want the second attempt's", c.Response.Body)
	}
}

func TestHedgeAllAttemptsFailReturnsFirstError(t *testing.T) {
	first := errors.New("first error")
	var attempts atomic.Int32
	fn := Compose(func(c *Call) error {
		if attempts.Add(1) == 1 {
			return first
		}
		return errors.New("later error")
	}, Hedge(HedgeOptions{Threshold: time.Millisecond, MaxHedges: 2, Hedgeable: func(*Call) bool { return true }}))
	c := hedgeCall()
	err := fn(c)
	if !errors.Is(err, first) {
		t.Fatalf("err = %v, want the first attempt's error", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (primary + 2 hedges)", got)
	}
}

func TestHedgeSkipsNonHedgeableCalls(t *testing.T) {
	var sawHedgeMeta atomic.Bool
	fn := Compose(func(c *Call) error {
		if _, ok := c.GetMeta(MetaHedgeAttempt).(int); ok {
			sawHedgeMeta.Store(true)
		}
		return nil
	}, Hedge(HedgeOptions{Threshold: time.Millisecond})) // default: idempotent-only
	if err := fn(hedgeCall()); err != nil {
		t.Fatalf("call: %v", err)
	}
	if sawHedgeMeta.Load() {
		t.Fatalf("non-idempotent call went through the hedging path")
	}
}

func TestHedgeAttemptsSeeDistinctIndices(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	fn := Compose(func(c *Call) error {
		mu.Lock()
		seen[HedgeAttempt(c)] = true
		mu.Unlock()
		if HedgeAttempt(c) == 0 {
			<-c.Ctx.Done() // slow primary
			return c.Ctx.Err()
		}
		return nil
	}, Hedge(HedgeOptions{Threshold: time.Millisecond, Hedgeable: func(*Call) bool { return true }}))
	if err := fn(hedgeCall()); err != nil {
		t.Fatalf("call: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !seen[0] || !seen[1] {
		t.Fatalf("attempt indices = %v, want 0 and 1", seen)
	}
}

func TestHedgeCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	released := make(chan struct{})
	fn := Compose(func(c *Call) error {
		<-c.Ctx.Done()
		close(released)
		return c.Ctx.Err()
	}, Hedge(HedgeOptions{Threshold: time.Hour, Hedgeable: func(*Call) bool { return true }}))
	c := hedgeCall()
	c.Ctx = ctx
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if err := fn(c); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatalf("attempt not released after caller cancellation")
	}
}

func TestRetryDrawsFromBudget(t *testing.T) {
	budget := &fakeBudget{tokens: 1}
	fail := errors.New("boom")
	var attempts int
	fn := Compose(func(c *Call) error {
		attempts++
		return fail
	}, Retry(RetryOptions{
		Attempts:  5,
		BaseDelay: time.Microsecond,
		Budget:    budget,
		Retryable: func(*Call, error) bool { return true },
	}))
	err := fn(hedgeCall())
	if !errors.Is(err, fail) {
		t.Fatalf("err = %v", err)
	}
	// One token: the first retry is granted, the second is denied, so the
	// call stops after 2 attempts instead of 5.
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (budget-bounded)", attempts)
	}
	if draws, denied, _ := budget.counts(); draws != 1 || denied != 1 {
		t.Fatalf("draws=%d denied=%d, want 1/1", draws, denied)
	}
}

func TestRetryReadsBudgetFromMeta(t *testing.T) {
	budget := &fakeBudget{tokens: 0}
	fail := errors.New("boom")
	var attempts int
	fn := Compose(func(c *Call) error {
		attempts++
		return fail
	}, Retry(RetryOptions{
		Attempts:  3,
		BaseDelay: time.Microsecond,
		Retryable: func(*Call, error) bool { return true },
	}))
	c := hedgeCall()
	c.SetMeta(MetaRetryBudget, RetryBudget(budget))
	if err := fn(c); !errors.Is(err, fail) {
		t.Fatalf("err = %v", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (Meta budget empty)", attempts)
	}
}

func TestRetryCreditsExplicitBudgetOnSuccess(t *testing.T) {
	budget := &fakeBudget{tokens: 5}
	fn := Compose(func(c *Call) error { return nil }, Retry(RetryOptions{Budget: budget}))
	if err := fn(hedgeCall()); err != nil {
		t.Fatalf("call: %v", err)
	}
	if _, _, credits := budget.counts(); credits != 1 {
		t.Fatalf("credits = %d, want 1", credits)
	}
}

// hintedError carries a server-advertised backoff.
type hintedError struct{ hint time.Duration }

func (e *hintedError) Error() string                 { return "overloaded" }
func (e *hintedError) RetryAfterHint() time.Duration { return e.hint }

func TestRetryHonorsRetryAfterHintAsFloor(t *testing.T) {
	var slept []time.Duration
	fail := &hintedError{hint: 700 * time.Millisecond}
	fn := Compose(func(c *Call) error { return fail }, Retry(RetryOptions{
		Attempts:  2,
		BaseDelay: time.Millisecond,
		Jitter:    0, // deterministic delays
		Retryable: func(*Call, error) bool { return true },
		sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}))
	if err := fn(hedgeCall()); !errors.Is(err, error(fail)) {
		t.Fatalf("err = %v", err)
	}
	if len(slept) != 1 || slept[0] != 700*time.Millisecond {
		t.Fatalf("slept = %v, want the server's 700ms floor over the 1ms base", slept)
	}
}

// TestRetryHonorsOverloadFaultHint: an overload fault read off the wire —
// P2PS and mem:// have no Retry-After header — floors the backoff on the
// seconds its detail advertises.
func TestRetryHonorsOverloadFaultHint(t *testing.T) {
	env, err := soap.Parse([]byte(`<soapenv:Envelope xmlns:soapenv="` + soap.Namespace + `" xmlns:ns1="` + soap.RetryAfterName.Space + `">` +
		`<soapenv:Body><soapenv:Fault><faultcode>soapenv:Server</faultcode><faultstring>overloaded</faultstring>` +
		`<detail><ns1:retryAfterSeconds>2</ns1:retryAfterSeconds></detail></soapenv:Fault></soapenv:Body></soapenv:Envelope>`))
	if err != nil || !env.IsFault() {
		t.Fatalf("parse: %v", err)
	}
	var slept []time.Duration
	fn := Compose(func(c *Call) error { return env.Fault() }, Retry(RetryOptions{
		Attempts:  2,
		BaseDelay: time.Millisecond,
		Jitter:    0,
		Retryable: func(*Call, error) bool { return true },
		sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}))
	if err := fn(hedgeCall()); err != env.Fault() {
		t.Fatalf("err = %v", err)
	}
	if len(slept) != 1 || slept[0] < 2*time.Second {
		t.Fatalf("slept = %v, want at least the fault's 2s", slept)
	}
}

func TestRetryHintBelowBackoffIsIgnored(t *testing.T) {
	var slept []time.Duration
	fail := &hintedError{hint: time.Millisecond}
	fn := Compose(func(c *Call) error { return fail }, Retry(RetryOptions{
		Attempts:  2,
		BaseDelay: 100 * time.Millisecond,
		Jitter:    0,
		Retryable: func(*Call, error) bool { return true },
		sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}))
	if err := fn(hedgeCall()); !errors.Is(err, error(fail)) {
		t.Fatalf("err = %v", err)
	}
	if len(slept) != 1 || slept[0] != 100*time.Millisecond {
		t.Fatalf("slept = %v, want the 100ms backoff to win over a 1ms hint", slept)
	}
}

func TestCallCloneIsolation(t *testing.T) {
	c := hedgeCall()
	c.SetMeta("k", "orig")
	for i := 0; i < metaInline; i++ { // enough keys that some spill
		c.SetMeta(fmt.Sprintf("fill%d", i), "orig")
	}
	spilled := fmt.Sprintf("fill%d", metaInline-1)
	cp := c.Clone(context.Background())
	cp.SetMeta("k", "copy")
	cp.SetMeta(spilled, "copy")
	cp.SetMeta("extra", 1)
	if got := c.GetMeta("k"); got != "orig" {
		t.Fatalf("clone mutation leaked into the original: %v", got)
	}
	if got := c.GetMeta(spilled); got != "orig" {
		t.Fatalf("clone mutation of a spilled key leaked into the original: %v", got)
	}
	if got := c.GetMeta("extra"); got != nil {
		t.Fatalf("clone-only key leaked into the original: %v", got)
	}
	c.SetMeta("k", "orig2")
	c.SetMeta(spilled, "orig2")
	if cp.GetMeta("k") != "copy" || cp.GetMeta(spilled) != "copy" {
		t.Fatalf("original's mutation leaked into the clone: %v, %v", cp.GetMeta("k"), cp.GetMeta(spilled))
	}
}

// TestHedgeFinishCopiesWinnersMeta: whatever the winning attempt stored on
// its clone — however many keys, inline or spilled — is on the caller's
// Call afterwards, except the attempt index, which is the attempt's own.
func TestHedgeFinishCopiesWinnersMeta(t *testing.T) {
	const keys = 2 * metaInline
	fn := Compose(func(c *Call) error {
		for i := 0; i < keys; i++ {
			c.SetMeta(fmt.Sprintf("won%d", i), i)
		}
		c.SetMeta("shared", "from the attempt")
		return nil
	}, Hedge(HedgeOptions{Threshold: time.Hour, Hedgeable: func(*Call) bool { return true }}))
	c := hedgeCall()
	c.SetMeta("shared", "from the caller")
	c.SetMeta("untouched", true)
	if err := fn(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if got := c.GetMeta(fmt.Sprintf("won%d", i)); got != i {
			t.Errorf("won%d = %v, want %d", i, got, i)
		}
	}
	if got := c.GetMeta("shared"); got != "from the attempt" {
		t.Errorf("shared = %v, want the winning attempt's value", got)
	}
	if got := c.GetMeta("untouched"); got != true {
		t.Errorf("untouched = %v", got)
	}
	if got := c.GetMeta(MetaHedgeAttempt); got != nil {
		t.Errorf("the attempt index %v was copied back", got)
	}
}
