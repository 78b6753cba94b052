package main

import (
	"context"
	"encoding/json"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wspeer/internal/pipeline"
	"wspeer/internal/telemetry"
	"wspeer/internal/transport"
)

// Span kinds. A span's parent is not recorded when it is made but worked
// out afterwards as the smallest span of the same op that encloses it:
// every span of one op is taken on one clock in one process, and the
// layers nest, so containment is parenthood.
type spanKind uint8

const (
	kOp spanKind = iota
	kInvoke
	kVerify
	kClientOuter
	kClientInner
	kTransport
	kServerOuter
	kServerInner
	kHandler
	kDeployPublish
	kLocate
	kNewInvocation
	kUndeploy
	kCheckGone
	numKinds
)

var kindNames = [numKinds]string{
	kOp:            "bench.op",
	kInvoke:        "core.invoke",
	kVerify:        "bench.verify",
	kClientOuter:   "pipeline.client_outer",
	kClientInner:   "pipeline.client_inner",
	kTransport:     "transport.call",
	kServerOuter:   "pipeline.server_outer",
	kServerInner:   "engine.serve_call",
	kHandler:       "engine.handler",
	kDeployPublish: "core.deploy_publish",
	kLocate:        "core.locate",
	kNewInvocation: "core.new_invocation",
	kUndeploy:      "core.undeploy",
	kCheckGone:     "bench.check_gone",
}

// spanRec is one recorded span, its times in ns since its op began.
type spanRec struct {
	start, end int32
	kind       spanKind
}

// maxOpSpans bounds the spans of one op; a lifecycle cycle makes 18.
const maxOpSpans = 24

// opTrace holds the spans of one operation. It lives outside the Go heap
// (see arena.go) and so holds no pointers. Client and server side of an op
// run on different goroutines, hence the lock.
type opTrace struct {
	mu     sync.Mutex
	id     uint64
	t0     int64 // when the op began, ns since the collector's base
	submit int64 // open loop: when InvokeAsync was called
	n      int32 // spans recorded
	conns  int32 // connections obtained by the wrapping transport
	reused int32 // of which reused
	// skip marks an op whose timings say nothing about the layers: an
	// open-loop call that was refused.
	skip  bool
	spans [maxOpSpans]spanRec
}

func relNs(d int64) int32 {
	if d < 0 {
		return 0
	}
	if d > 1<<31-1 {
		return 1<<31 - 1
	}
	return int32(d)
}

// add records a span given in collector time.
func (o *opTrace) add(kind spanKind, start, end int64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	if o.n < maxOpSpans {
		o.spans[o.n] = spanRec{relNs(start - o.t0), relNs(end - o.t0), kind}
		o.n++
	}
	o.mu.Unlock()
}

type opKey struct{}

// maxTracedOps bounds the collector; ops beyond it run untraced.
const maxTracedOps = 1 << 18

// collector keeps every span of a traced pass in memory. It exists only
// in a traced rig: an untraced rig has no collector, no benchmark
// interceptor and no wrapping transport.
type collector struct {
	base time.Time
	next atomic.Uint64
	from int // summarize skips the ops before this one
	ops  []opTrace
	free func()
	// current is the op in flight for substrates that carry no context
	// to the server side (P2PS pipes); valid with one caller only.
	current atomic.Pointer[opTrace]

	capOnce  sync.Once
	captured struct {
		service string
		req     transport.Request
		resp    []byte
	}
}

func newCollector() (*collector, error) {
	ops, free, err := offHeap[opTrace](maxTracedOps)
	if err != nil {
		return nil, err
	}
	return &collector{base: time.Now(), ops: ops, free: free}, nil
}

func (c *collector) now() int64 { return int64(time.Since(c.base)) }

// traced is how many ops the collector holds.
func (c *collector) traced() int { return min(int(c.next.Load()), maxTracedOps) }

// begin starts an op: the returned context carries the op for the client
// side and a trace identity that the HTTP transport propagates in
// X-Wspeer-Trace, by which the server side finds the op again.
func (c *collector) begin(ctx context.Context) (*opTrace, context.Context) {
	id := c.next.Add(1)
	if id > maxTracedOps {
		c.current.Store(nil)
		return nil, ctx
	}
	op := &c.ops[id-1]
	op.mu.Lock()
	op.id, op.t0 = id, c.now()
	op.mu.Unlock()
	c.current.Store(op)
	ctx = context.WithValue(ctx, opKey{}, op)
	return op, telemetry.ContextWithSpanContext(ctx, telemetry.SpanContext{TraceID: id, SpanID: 1})
}

func (c *collector) opOf(ctx context.Context) *opTrace {
	if op, ok := ctx.Value(opKey{}).(*opTrace); ok {
		return op
	}
	if sc, ok := telemetry.SpanContextFromContext(ctx); ok {
		if sc.TraceID >= 1 && sc.TraceID <= uint64(c.traced()) {
			return &c.ops[sc.TraceID-1]
		}
		return nil
	}
	return c.current.Load()
}

// interceptor brackets the rest of a pipeline in a span of the given kind.
// A server-side innermost interceptor also captures the first request and
// response it sees, the bytes the isolated layer calls are made on.
func (c *collector) interceptor(kind spanKind) pipeline.Interceptor {
	return func(next pipeline.CallFunc) pipeline.CallFunc {
		return func(call *pipeline.Call) error {
			op := c.opOf(call.Ctx)
			start := c.now()
			err := next(call)
			op.add(kind, start, c.now())
			if kind == kServerInner && call.Request != nil {
				c.capOnce.Do(func() {
					c.captured.service = call.Service
					c.captured.req = *call.Request
					c.captured.req.Body = append([]byte(nil), call.Request.Body...)
					if call.Response != nil {
						c.captured.resp = append([]byte(nil), call.Response.Body...)
					}
				})
			}
			return err
		}
	}
}

// tracedTransport wraps a client transport in a span and counts reused
// connections.
type tracedTransport struct {
	inner transport.Transport
	c     *collector
}

func (t tracedTransport) Scheme() string { return t.inner.Scheme() }

func (t tracedTransport) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	op := t.c.opOf(ctx)
	if op != nil && t.inner.Scheme() == "http" {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) {
				op.mu.Lock()
				op.conns++
				if info.Reused {
					op.reused++
				}
				op.mu.Unlock()
			},
		})
	}
	start := t.c.now()
	resp, err := t.inner.Call(ctx, req)
	op.add(kTransport, start, t.c.now())
	return resp, err
}

// ---------------------------------------------------------------------------
// Analysis

// kindStats is what the traced pass knows about one span kind.
type kindStats struct {
	totalUs []float64 // one per span: duration
	selfUs  []float64 // one per span: duration minus direct children
}

type traceSummary struct {
	kinds [numKinds]kindStats
	// topLevel counts the spans of each kind that sit directly under the
	// op's root span.
	topLevel [numKinds]int
	conns    int
	reused   int
	// invokeSelfUs is core.invoke minus its pipeline child, per op.
	invokeSelfUs []float64
	// submitUs is InvokeAsync submit → pipeline start, per op (open loop).
	submitUs []float64
	// echoTransportUs is the transport span under the client pipeline
	// (as opposed to registry calls made outside it), per op.
	echoTransportUs []float64
}

// parents returns, for every span, the index of the smallest enclosing
// span (-1 for a root). Spans are first put in nesting order.
func parents(spans []spanRec) []int {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end > b.end
		}
		return a.kind < b.kind
	})
	par := make([]int, len(spans))
	var stack []int
	for i := range spans {
		s := &spans[i]
		for len(stack) > 0 && spans[stack[len(stack)-1]].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		par[i] = -1
		if len(stack) > 0 {
			par[i] = stack[len(stack)-1]
			// A P2PS dispatch sends its reply from inside the server
			// pipeline, so the client can finish first; the overhang is
			// not on the op's blocking path and is cut off.
			if pe := spans[par[i]].end; s.end > pe {
				s.end = pe
			}
		}
		stack = append(stack, i)
	}
	return par
}

func (c *collector) summarize() *traceSummary {
	sum := &traceSummary{}
	for i := c.from; i < c.traced(); i++ {
		op := &c.ops[i]
		op.mu.Lock()
		spans := append([]spanRec(nil), op.spans[:op.n]...)
		skip, submit := op.skip, op.submit
		sum.conns += int(op.conns)
		sum.reused += int(op.reused)
		op.mu.Unlock()
		complete := false
		for _, s := range spans {
			if s.kind == kOp {
				complete = true
			}
		}
		if !complete || skip {
			continue // cut off by the end of the pass, or refused
		}
		par := parents(spans)
		child := make([]int32, len(spans))
		for i, p := range par {
			if p >= 0 {
				child[p] += spans[i].end - spans[i].start
			}
		}
		for i, s := range spans {
			d := s.end - s.start
			k := &sum.kinds[s.kind]
			k.totalUs = append(k.totalUs, float64(d)/1e3)
			k.selfUs = append(k.selfUs, float64(d-child[i])/1e3)
			if p := par[i]; p >= 0 && spans[p].kind == kOp {
				sum.topLevel[s.kind]++
			}
			switch s.kind {
			case kInvoke:
				sum.invokeSelfUs = append(sum.invokeSelfUs, float64(d-child[i])/1e3)
			case kClientOuter:
				if submit > 0 {
					sum.submitUs = append(sum.submitUs, float64(op.t0+int64(s.start)-submit)/1e3)
				}
			case kTransport:
				if p := par[i]; p >= 0 && spans[p].kind == kClientInner {
					sum.echoTransportUs = append(sum.echoTransportUs, float64(d)/1e3)
				}
			}
		}
	}
	return sum
}

// traceFileOps bounds how many ops' spans the trace file holds.
const traceFileOps = 2000

type traceSpanJSON struct {
	Op      uint64 `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the op's root span
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeTrace writes the spans of the first ops of the pass. IDs are
// indices within the file; a parent is the ID of a span of the same op.
func (c *collector) writeTrace(path, workload string) error {
	var out []traceSpanJSON
	for i := 0; i < c.traced() && i < traceFileOps; i++ {
		op := &c.ops[i]
		op.mu.Lock()
		spans := append([]spanRec(nil), op.spans[:op.n]...)
		op.mu.Unlock()
		par := parents(spans)
		base := len(out)
		for j, s := range spans {
			p := -1
			if par[j] >= 0 {
				p = base + par[j]
			}
			out = append(out, traceSpanJSON{Op: op.id, ID: base + j, Parent: p, Name: kindNames[s.kind],
				StartNs: op.t0 + int64(s.start), EndNs: op.t0 + int64(s.end)})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]interface{}{"workload": workload, "clock": "ns since the traced pass's collector was made", "spans": out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
