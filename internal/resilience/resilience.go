// Package resilience is WSPeer's availability layer: the machinery that
// keeps a peer useful when the substrate under one of its bindings
// degrades. The paper's pluggable-binding design (§III) exists precisely
// so an application can keep invoking a service when one environment
// fails — a P2PS client borrowing another binding's components — and this
// package supplies the four mechanisms that make that automatic:
//
//   - per-endpoint circuit breakers (Breaker, Group): a closed→open→
//     half-open state machine over a sliding window of call outcomes,
//     keyed by endpoint identity and run as one guarded attempt
//     (Group.Do), so a dead endpoint stops burning retries after a few
//     failures;
//
//   - server-side admission control (Admission): a hard concurrency
//     limit with a bounded, deadline-aware wait queue and load shedding,
//     so a saturated host degrades by refusing work (SOAP Server fault,
//     HTTP 503 + Retry-After) instead of falling over;
//
//   - deterministic fault injection (Injector): a transport.Transport
//     wrapper and pipeline interceptor that injects seeded errors,
//     latency and hangs, with a virtual-time seam (netsim.Simulator's
//     AfterFunc satisfies it) so chaos tests reproduce bit-for-bit;
//
//   - failure classification (Classify): one shared judgment
//     of which errors indict an endpoint — transport breakage and
//     timeouts do; application-level SOAP faults and caller cancellation
//     do not — so breakers, failover and health reporting agree.
//
// The cross-binding failover invoker itself lives in internal/core
// (core.Client.NewFailoverInvocation) because it needs the client's
// invoker table; it drives the breakers defined here.
package resilience

import (
	"context"
	"errors"
	"fmt"

	"wspeer/internal/soap"
)

// Outcome is the resilience layer's judgment of one call attempt.
type Outcome int

const (
	// Success: the endpoint answered. Application-level SOAP faults count
	// here — a fault envelope proves the endpoint is alive and parsing.
	Success Outcome = iota
	// Failure: the endpoint is implicated — transport breakage, an
	// injected fault, a timeout, or an overload shed.
	Failure
	// Skip: the attempt says nothing about the endpoint (the caller
	// cancelled, or a breaker refused the call locally).
	Skip
)

// Classify maps a call attempt's error to an Outcome. This is the single
// definition of "endpoint failure" shared by breakers, failover ordering
// and health events:
//
//   - nil and *soap.Fault → Success (the exchange completed; a fault is
//     the application speaking, not the substrate failing). Overload
//     sheds never reach this arm: over HTTP they travel as 503, which
//     the transport surfaces as a Go error.
//   - context.Canceled → Skip (the caller gave up; the endpoint is not
//     implicated, and recording it would open breakers under load).
//   - BreakerOpenError → Skip (a local refusal, not new evidence).
//   - everything else, context.DeadlineExceeded included → Failure (a
//     black-holed endpoint manifests exactly as a timeout).
func Classify(err error) Outcome {
	if err == nil {
		return Success
	}
	var f *soap.Fault
	if errors.As(err, &f) {
		return Success
	}
	if errors.Is(err, context.Canceled) {
		return Skip
	}
	var open *BreakerOpenError
	if errors.As(err, &open) {
		return Skip
	}
	return Failure
}

// BreakerOpenError is returned when a circuit breaker refuses a call
// without attempting it.
type BreakerOpenError struct {
	// Endpoint whose breaker is open.
	Endpoint string
}

// Error implements error.
func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("resilience: circuit open for endpoint %s", e.Endpoint)
}

// ErrorClass classifies refusals for the telemetry flight recorder.
func (e *BreakerOpenError) ErrorClass() string { return "breaker-open" }
