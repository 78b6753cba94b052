package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wspeer/internal/transport"
)

func TestComposeOrder(t *testing.T) {
	var trace []string
	mark := func(name string) Interceptor {
		return func(next CallFunc) CallFunc {
			return func(c *Call) error {
				trace = append(trace, name+"-before")
				err := next(c)
				trace = append(trace, name+"-after")
				return err
			}
		}
	}
	fn := Compose(func(c *Call) error {
		trace = append(trace, "terminal")
		return nil
	}, mark("a"), mark("b"))
	if err := fn(&Call{Ctx: context.Background()}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a-before", "b-before", "terminal", "b-after", "a-after"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestChainRunRecordsErr(t *testing.T) {
	ch := NewChain()
	boom := errors.New("boom")
	c := &Call{Ctx: context.Background()}
	if err := ch.Run(c, func(*Call) error { return boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if c.Err != boom {
		t.Fatalf("c.Err = %v", c.Err)
	}
}

func TestChainUseDuringRun(t *testing.T) {
	// Use may race with Run: the chain snapshots per call.
	ch := NewChain()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ch.Use(func(next CallFunc) CallFunc { return next })
			}
		}
	}()
	for i := 0; i < 200; i++ {
		c := &Call{Ctx: context.Background()}
		if err := ch.Run(c, func(*Call) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestChainComposesAtUse: an interceptor's outer function runs when the
// chain is composed — once for each Use — and never per call.
func TestChainComposesAtUse(t *testing.T) {
	var composed, ran int
	counting := func(next CallFunc) CallFunc {
		composed++
		return func(c *Call) error { ran++; return next(c) }
	}
	ch := NewChain(counting)
	for i := 0; i < 100; i++ {
		if err := ch.Run(&Call{Ctx: context.Background()}, func(*Call) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if composed != 1 || ran != 100 {
		t.Fatalf("100 runs: the factory ran %d times, the stage %d; want 1 and 100", composed, ran)
	}
	ch.Use(func(next CallFunc) CallFunc { return next })
	if composed != 2 {
		t.Fatalf("after a second Use the factory ran %d times, want 2", composed)
	}
}

// TestChainUseIsAtomic: a run racing Use runs the whole stack of one Use or
// the next, never a part of one. Each Use installs a pair of stages of one
// generation; every run must see generations 1..k, each with both stages.
func TestChainUseIsAtomic(t *testing.T) {
	ch := NewChain()
	pair := func(gen int) []Interceptor {
		stage := func(next CallFunc) CallFunc {
			return func(c *Call) error {
				seen := c.GetMeta("seen").(*[]int)
				*seen = append(*seen, gen)
				return next(c)
			}
		}
		return []Interceptor{stage, stage}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for gen := 1; gen <= 50; gen++ {
			ch.Use(pair(gen)...)
		}
	}()
	for i := 0; i < 1000; i++ {
		var seen []int
		c := &Call{Ctx: context.Background()}
		c.SetMeta("seen", &seen)
		reached := false
		if err := ch.Run(c, func(*Call) error { reached = true; return nil }); err != nil || !reached {
			t.Fatalf("run %d: %v, terminal reached %v", i, err, reached)
		}
		if len(seen)%2 != 0 {
			t.Fatalf("run %d saw half a Use: %v", i, seen)
		}
		for j, gen := range seen {
			if gen != j/2+1 {
				t.Fatalf("run %d saw stages %v, not generations 1..%d in order", i, seen, len(seen)/2)
			}
		}
	}
	<-done
}

// TestChainHedgeReachesTerminal: a hedged attempt runs on a clone of the
// call, which carries the terminal Run was given.
func TestChainHedgeReachesTerminal(t *testing.T) {
	ch := NewChain(Hedge(HedgeOptions{Threshold: 5 * time.Millisecond, Hedgeable: func(*Call) bool { return true }}))
	primary := make(chan struct{})
	c := &Call{Ctx: context.Background()}
	err := ch.Run(c, func(c *Call) error {
		if HedgeAttempt(c) == 0 {
			defer close(primary)
			<-c.Ctx.Done() // the primary hangs until the hedge wins
			return c.Ctx.Err()
		}
		c.Response = &transport.Response{Body: []byte("hedge")}
		return nil
	})
	if err != nil || c.Response == nil || string(c.Response.Body) != "hedge" {
		t.Fatalf("hedged run: %v, %+v", err, c.Response)
	}
	select {
	case <-primary:
	case <-time.After(5 * time.Second):
		t.Fatal("the primary attempt never reached the terminal")
	}
}

func TestDeadlineEnforced(t *testing.T) {
	ic := Deadline(10 * time.Millisecond)
	fn := ic(func(c *Call) error {
		select {
		case <-c.Ctx.Done():
			return c.Ctx.Err()
		case <-time.After(5 * time.Second):
			return nil
		}
	})
	c := &Call{Ctx: context.Background()}
	start := time.Now()
	err := fn(c)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline not enforced promptly")
	}
	if c.Ctx.Err() != nil {
		t.Fatal("original context not restored")
	}
}

func TestDeadlineExpiredBeforeCall(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reached := false
	fn := Deadline(time.Hour)(func(c *Call) error { reached = true; return nil })
	if err := fn(&Call{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if reached {
		t.Fatal("terminal ran under a dead context")
	}
}

func TestDeadlineDisabled(t *testing.T) {
	fn := Deadline(0)(func(c *Call) error {
		if _, ok := c.Ctx.Deadline(); ok {
			t.Fatal("disabled Deadline still set a deadline")
		}
		return nil
	})
	if err := fn(&Call{Ctx: context.Background()}); err != nil {
		t.Fatal(err)
	}
}

// TestRetryRecoversTransientFailure is the acceptance check: a terminal
// failing twice with a transient transport error succeeds on the third
// attempt under Retry.
func TestRetryRecoversTransientFailure(t *testing.T) {
	attempts := 0
	terminal := func(c *Call) error {
		attempts++
		if attempts < 3 {
			return fmt.Errorf("transient: connection reset (attempt %d)", attempts)
		}
		c.Response = &transport.Response{Body: []byte("ok")}
		return nil
	}
	fn := Retry(RetryOptions{
		Attempts:  5,
		BaseDelay: time.Microsecond,
		sleep:     func(context.Context, time.Duration) error { return nil },
	})(terminal)
	c := &Call{Ctx: context.Background()}
	MarkIdempotent(c)
	if err := fn(c); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d", attempts)
	}
	if c.Response == nil || string(c.Response.Body) != "ok" {
		t.Fatalf("response = %+v", c.Response)
	}
}

func TestRetryDefaultPolicyIsIdempotentOnly(t *testing.T) {
	attempts := 0
	fn := Retry(RetryOptions{
		Attempts:  4,
		BaseDelay: time.Microsecond,
		sleep:     func(context.Context, time.Duration) error { return nil },
	})(func(c *Call) error {
		attempts++
		return errors.New("always fails")
	})
	// Unmarked call: no retransmission.
	if err := fn(&Call{Ctx: context.Background()}); err == nil {
		t.Fatal("expected error")
	}
	if attempts != 1 {
		t.Fatalf("non-idempotent call attempted %d times", attempts)
	}
	// Marked call: retried up to Attempts.
	attempts = 0
	c := &Call{Ctx: context.Background()}
	MarkIdempotent(c)
	if err := fn(c); err == nil {
		t.Fatal("expected error")
	}
	if attempts != 4 {
		t.Fatalf("idempotent call attempted %d times", attempts)
	}
}

func TestRetryStopsOnContextErrors(t *testing.T) {
	attempts := 0
	fn := Retry(RetryOptions{
		Attempts:  5,
		BaseDelay: time.Microsecond,
		sleep:     func(context.Context, time.Duration) error { return nil },
	})(func(c *Call) error {
		attempts++
		return context.DeadlineExceeded
	})
	c := &Call{Ctx: context.Background()}
	MarkIdempotent(c)
	if err := fn(c); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry after deadline)", attempts)
	}
}

func TestRetryClearsCarrierBetweenAttempts(t *testing.T) {
	attempts := 0
	fn := Retry(RetryOptions{
		Attempts:  2,
		BaseDelay: time.Microsecond,
		Retryable: func(*Call, error) bool { return true },
		sleep:     func(context.Context, time.Duration) error { return nil },
	})(func(c *Call) error {
		attempts++
		if attempts == 1 {
			c.Response = &transport.Response{Body: []byte("partial")}
			return errors.New("failed after partial response")
		}
		if c.Response != nil {
			t.Error("stale response visible to second attempt")
		}
		return nil
	})
	if err := fn(&Call{Ctx: context.Background()}); err != nil {
		t.Fatal(err)
	}
}

// TestRetrySkipsFirstAttemptWhenCancelled: a call whose context is already
// dead gets no first attempt — the terminal (which may not check the
// context promptly, or at all) must never run.
func TestRetrySkipsFirstAttemptWhenCancelled(t *testing.T) {
	attempts := 0
	fn := Retry(RetryOptions{
		Attempts:  3,
		BaseDelay: time.Microsecond,
		Retryable: func(*Call, error) bool { return true },
		sleep:     func(context.Context, time.Duration) error { return nil },
	})(func(c *Call) error {
		attempts++
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := fn(&Call{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if attempts != 0 {
		t.Fatalf("terminal ran %d times for a pre-cancelled call", attempts)
	}
	// A nil context (bare chain usage) must not panic.
	if err := fn(&Call{}); err != nil {
		t.Fatal(err)
	}
}

func TestEventsObservesOncePerLogicalCall(t *testing.T) {
	var events []error
	ic := Events(func(c *Call) { events = append(events, c.Err) })
	retry := Retry(RetryOptions{
		Attempts:  3,
		BaseDelay: time.Microsecond,
		Retryable: func(*Call, error) bool { return true },
		sleep:     func(context.Context, time.Duration) error { return nil },
	})
	attempts := 0
	fn := Compose(func(c *Call) error {
		attempts++
		if attempts < 2 {
			return errors.New("once")
		}
		return nil
	}, ic, retry) // Events outermost
	if err := fn(&Call{Ctx: context.Background()}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0] != nil {
		t.Fatalf("events = %v", events)
	}
}

func TestDirectionString(t *testing.T) {
	if ClientCall.String() != "client" || ServerDispatch.String() != "server" {
		t.Fatal("direction strings")
	}
}

func TestMetaLazyAllocation(t *testing.T) {
	c := &Call{}
	if c.GetMeta("x") != nil {
		t.Fatal("empty meta")
	}
	c.SetMeta("x", 7)
	if c.GetMeta("x") != 7 {
		t.Fatal("meta roundtrip")
	}
}

// TestMetaStore: the first metaInline keys live in the carrier, later
// ones in a map, and neither SetMeta nor GetMeta shows which: every key
// reads back and an overwrite replaces in place whichever side the key is
// on.
func TestMetaStore(t *testing.T) {
	c := &Call{}
	const keys = 2*metaInline + 1
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	for i := 0; i < keys; i++ {
		c.SetMeta(key(i), i)
	}
	for i := 0; i < keys; i++ {
		if got := c.GetMeta(key(i)); got != i {
			t.Fatalf("%s = %v, want %d", key(i), got, i)
		}
	}
	if c.metaLen != metaInline || len(c.metaMore) != keys-metaInline {
		t.Fatalf("%d inline + %d spilled, want %d + %d", c.metaLen, len(c.metaMore), metaInline, keys-metaInline)
	}
	for _, i := range []int{0, metaInline - 1, metaInline, keys - 1} {
		c.SetMeta(key(i), -i)
		if got := c.GetMeta(key(i)); got != -i {
			t.Fatalf("overwritten %s = %v, want %d", key(i), got, -i)
		}
	}
	seen := map[string]int{}
	c.eachMeta(func(k string, v interface{}) { seen[k]++ })
	if len(seen) != keys {
		t.Fatalf("eachMeta visited %d keys, want %d: %v", len(seen), keys, seen)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("eachMeta visited %s %d times", k, n)
		}
	}
	if c.GetMeta("absent") != nil {
		t.Fatal("absent key")
	}
}

// TestMetaStoreAllocs: a call with the usual few keys allocates nothing
// for them.
func TestMetaStoreAllocs(t *testing.T) {
	flag := interface{}(true) // boxed once, outside the measurement
	if got := testing.AllocsPerRun(100, func() {
		var c Call
		for i := 0; i < metaInline; i++ {
			c.SetMeta(metaKeys[i], flag)
		}
		if c.GetMeta(metaKeys[0]) == nil {
			t.Fatal("lost a key")
		}
	}); got != 0 {
		t.Fatalf("%d keys cost %v allocations, want 0", metaInline, got)
	}
}

var metaKeys = [metaInline]string{"a", "b", "c", "d"}
