package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/pipeline"
	"wspeer/internal/resilience"
	"wspeer/internal/telemetry"
	"wspeer/internal/transport"
)

// pathInvoker is a scripted mem:// invoker for the call-path tests. Like a
// real invoker it publishes the request it sent on the carrier. An endpoint
// in slow answers only when its attempt is cancelled; one in failures
// fails that many attempts with a substrate error before it succeeds.
type pathInvoker struct {
	callbackInvoker // HostReplyEndpoint
	slow            map[string]bool
	mu              sync.Mutex
	failures        map[string]int
	sent            atomic.Int64
}

var errSubstrate = errors.New("connection refused")

func (p *pathInvoker) Invoke(c *pipeline.Call, svc *ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	p.sent.Add(1)
	c.Request = &transport.Request{Endpoint: svc.Endpoint}
	if p.slow[svc.Endpoint] {
		<-c.Ctx.Done()
		return nil, c.Ctx.Err()
	}
	p.mu.Lock()
	fail := p.failures[svc.Endpoint] > 0
	if fail {
		p.failures[svc.Endpoint]--
	}
	p.mu.Unlock()
	if fail {
		return nil, errSubstrate
	}
	c.Response = &transport.Response{}
	return &engine.Result{}, nil
}

// keepEveryFlightRecord swaps the Default hub's flight recorder for one
// that samples nothing out and collects its spans, for the test's duration.
func keepEveryFlightRecord(t *testing.T) (*telemetry.Recorder, *telemetry.Collector) {
	t.Helper()
	hub := telemetry.Default()
	old := hub.Flight
	hub.Flight = telemetry.NewRecorder(telemetry.RecorderOptions{SuccessOneIn: 1})
	spans := telemetry.NewCollector(0)
	oldSink := hub.Tracer.SetSink(spans)
	t.Cleanup(func() {
		hub.Flight = old
		hub.Tracer.SetSink(oldSink)
	})
	return hub.Flight, spans
}

// TestOneCallPath: whatever the shape of the invocation — the three
// exchange patterns, a failover walk under Retry, a hedged race — one
// logical call is one client row increment in the call table, one flight
// record with its pattern, retry and hedge counts, one ClientMessageEvent
// and one client span, and record and span name the endpoint that answered
// (the second target, for the failover and the hedge).
func TestOneCallPath(t *testing.T) {
	flight, spans := keepEveryFlightRecord(t)
	const first, second = "mem://a/Svc", "mem://b/Svc"
	invoke := func(ctx context.Context, inv *Invocation) error {
		res, err := inv.Invoke(ctx, "op")
		if err == nil && res == nil {
			err = errors.New("no result from the attempt that answered")
		}
		return err
	}
	cases := []struct {
		name     string
		invoker  *pathInvoker
		bind     func(c *Client, svcs ...*ServiceInfo) (*Invocation, error)
		targets  []string
		retry    bool
		call     func(ctx context.Context, inv *Invocation) error
		span     string
		pattern  string
		endpoint string
		retries  int
		hedges   int
		sent     int64
	}{
		{
			name:    "Invoke",
			invoker: &pathInvoker{},
			bind:    (*Client).NewFailoverInvocation,
			targets: []string{first},
			call:    invoke,
			span:    "client.invoke", endpoint: first, sent: 1,
		},
		{
			name:    "InvokeOneWay",
			invoker: &pathInvoker{},
			bind:    (*Client).NewFailoverInvocation,
			// An exchange-layer send goes to the primary only, however many
			// targets are bound.
			targets: []string{first, second},
			call:    func(ctx context.Context, inv *Invocation) error { return inv.InvokeOneWay(ctx, "op") },
			span:    "client.invoke.oneway", pattern: "one-way", endpoint: first, sent: 1,
		},
		{
			name:    "InvokeCallback",
			invoker: &pathInvoker{},
			bind:    (*Client).NewFailoverInvocation,
			targets: []string{first},
			call: func(ctx context.Context, inv *Invocation) error {
				_, err := inv.InvokeCallback(ctx, "op")
				return err
			},
			span: "client.invoke.callback", pattern: "callback", endpoint: first, sent: 1,
		},
		{
			// Walk one: the first target fails, then the second; Retry runs
			// the walk again and the second target answers.
			name:    "Failover",
			invoker: &pathInvoker{failures: map[string]int{first: 2, second: 1}},
			bind:    (*Client).NewFailoverInvocation,
			targets: []string{first, second},
			retry:   true,
			call:    invoke,
			span:    "client.invoke", endpoint: second, retries: 1, sent: 4,
		},
		{
			name:    "Hedged",
			invoker: &pathInvoker{slow: map[string]bool{first: true}},
			bind: func(c *Client, svcs ...*ServiceInfo) (*Invocation, error) {
				return c.NewHedgedInvocation(HedgeOptions{Threshold: 2 * time.Millisecond}, svcs...)
			},
			targets: []string{first, second},
			call:    invoke,
			span:    "client.invoke", endpoint: second, hedges: 1, sent: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			service := "CallPath" + tc.name
			p := NewPeer()
			events := &recorder{}
			p.AddListener(events)
			p.Client().RegisterInvoker(tc.invoker)
			if tc.retry {
				p.Client().Use(pipeline.Retry(pipeline.RetryOptions{
					Attempts: 2, BaseDelay: time.Millisecond,
					Retryable: func(*pipeline.Call, error) bool { return true },
				}))
			}
			var svcs []*ServiceInfo
			for _, ep := range tc.targets {
				svcs = append(svcs, &ServiceInfo{Name: service, Endpoint: ep})
			}
			inv, err := tc.bind(p.Client(), svcs...)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := tc.call(ctx, inv); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			defer p.Client().CloseExchange()

			if got := tc.invoker.sent.Load(); got != tc.sent {
				t.Errorf("attempts sent = %d, want %d", got, tc.sent)
			}
			row := telemetry.Default().Calls.Service(service, telemetry.DirClient)
			if row.Calls != 1 || row.Failures != 0 {
				t.Errorf("call table row = %d calls, %d failures, want 1 and 0", row.Calls, row.Failures)
			}
			recs := flight.Query(telemetry.RecordFilter{Service: service})
			if len(recs) != 1 {
				t.Fatalf("flight records = %d, want 1: %+v", len(recs), recs)
			}
			rec := recs[0]
			if rec.Dir != telemetry.DirClient || rec.Op != "op" || rec.Pattern != tc.pattern ||
				rec.Retries != tc.retries || rec.Hedges != tc.hedges || rec.Endpoint != tc.endpoint || rec.ErrClass != "" {
				t.Errorf("flight record = %+v, want client op, pattern %q, %d retries, %d hedges, endpoint %s, no error",
					rec, tc.pattern, tc.retries, tc.hedges, tc.endpoint)
			}
			events.mu.Lock()
			n := len(events.client)
			events.mu.Unlock()
			if n != 1 {
				t.Errorf("ClientMessageEvents = %d, want 1", n)
			}
			got := spans.ByService(service)
			if len(got) != 1 {
				t.Fatalf("client spans = %d, want 1: %+v", len(got), got)
			}
			if s := got[0]; s.Name != tc.span || s.Dir != telemetry.DirClient || s.Endpoint != tc.endpoint ||
				s.TraceID != rec.TraceID || s.SpanID != rec.SpanID {
				t.Errorf("span = %+v, want %s to %s with the flight record's trace identity", s, tc.span, tc.endpoint)
			}
		})
	}
}

// TestHedgedLoserFreesHalfOpenProbe: the losing attempt of a hedged
// invocation is cancelled by Hedge; when that attempt was the half-open
// probe of its endpoint, the cancellation must give the probe back, or the
// breaker refuses the endpoint for good.
func TestHedgedLoserFreesHalfOpenProbe(t *testing.T) {
	const slowEP, fastEP = "mem://slow/Svc", "mem://fast/Svc"
	now := time.Unix(1000, 0)
	var clock sync.Mutex
	p := NewPeer()
	p.Client().ConfigureBreakers(resilience.BreakerOptions{
		Window: 2, MinSamples: 2, OpenTimeout: time.Minute,
		Now: func() time.Time {
			clock.Lock()
			defer clock.Unlock()
			return now
		},
	})
	p.Client().RegisterInvoker(&pathInvoker{slow: map[string]bool{slowEP: true}})
	group := p.Client().Breakers()
	br := group.Breaker(slowEP)
	br.Record(false)
	br.Record(false)
	if br.State() != resilience.BreakerOpen {
		t.Fatalf("state = %v, want open", br.State())
	}
	clock.Lock()
	now = now.Add(time.Minute) // the next attempt is the half-open probe
	clock.Unlock()

	inv, err := p.Client().NewHedgedInvocation(HedgeOptions{Threshold: 2 * time.Millisecond},
		&ServiceInfo{Name: "ProbeLoser", Endpoint: slowEP}, &ServiceInfo{Name: "ProbeLoser", Endpoint: fastEP})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Invoke(context.Background(), "op"); err != nil {
		t.Fatalf("hedged invoke: %v", err)
	}
	// The loser settles on its own goroutine after Invoke returns: wait for
	// the probe slot to come back, then one success closes the breaker.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := group.Do(slowEP, func() error { return nil }); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker for %s wedged in %v: the cancelled probe was never given back", slowEP, br.State())
		}
		time.Sleep(time.Millisecond)
	}
	if br.State() != resilience.BreakerClosed {
		t.Fatalf("state after the next probe succeeded = %v, want closed", br.State())
	}
}
