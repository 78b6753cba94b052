package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"wspeer/internal/engine"
	"wspeer/internal/resolve"
)

// CacheKeyer lets a binding-specific ServiceQuery define its own
// resolution-cache identity. Queries that do not implement it are keyed
// by QueryKey's canonical forms.
type CacheKeyer interface {
	// CacheKey returns a canonical identity string: equal keys mean the
	// queries resolve to the same service set.
	CacheKey() string
}

// QueryKey canonicalizes a ServiceQuery into the resolution cache's
// identity string. Two queries with the same key share a cache line:
// NameQuery keys are order-independent in their attribute constraints,
// ExprQuery keys carry the predicate source verbatim, and any query
// implementing CacheKeyer speaks for itself.
func QueryKey(q ServiceQuery) string {
	switch qq := q.(type) {
	case CacheKeyer:
		return qq.CacheKey()
	case NameQuery:
		var b strings.Builder
		b.WriteString("name|")
		b.WriteString(qq.Name)
		b.WriteString("|max=")
		b.WriteString(strconv.Itoa(qq.MaxResults))
		if len(qq.Attrs) > 0 {
			keys := make([]string, 0, len(qq.Attrs))
			for k := range qq.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				b.WriteString("|")
				b.WriteString(k)
				b.WriteString("=")
				b.WriteString(qq.Attrs[k])
			}
		}
		return b.String()
	case ExprQuery:
		return "expr|" + qq.Name + "|" + qq.Expr
	default:
		return fmt.Sprintf("%T|%v", q, q)
	}
}

// ConfigureResolutionCache replaces the client's resolution cache with
// one built from opts, discarding any cached resolutions. The cache is
// created automatically with defaults (30s TTL, equal stale window, 2s
// negative TTL); call this before relying on LocateCached if different
// horizons are needed.
func (c *Client) ConfigureResolutionCache(opts resolve.Options) {
	cache := resolve.New(opts)
	c.mu.Lock()
	c.rcache = cache
	c.mu.Unlock()
}

// ResolutionCache returns the client's resolution cache — the memoized
// query → located-services map behind LocateCached, with its own
// invalidation (Invalidate, Clear, EvictEndpoint) and Stats.
func (c *Client) ResolutionCache() *resolve.Cache {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.rcache
}

// LocateCached resolves the query through the client's resolution cache:
// repeated lookups for the same query identity (see QueryKey) are served
// from memory instead of fanning out to the locators. A fresh cache line
// answers immediately; a stale one answers immediately while one
// background refresh re-runs the live Locate; an error or empty outcome
// is replayed for the negative TTL; and concurrent misses for the same
// query collapse into a single live Locate. DiscoveryEvents fire only
// when a live Locate actually runs — cache hits are silent.
//
// Invalidation is wired to the resilience layer: an endpoint whose
// circuit breaker opens is evicted from every cached resolution, and an
// endpoint that fails over during a failover invocation is demoted to
// the back of its lines' preference order.
func (c *Client) LocateCached(ctx context.Context, q ServiceQuery) ([]*ServiceInfo, error) {
	entries, err := c.ResolutionCache().Get(ctx, QueryKey(q), func(ctx context.Context) ([]resolve.Entry, error) {
		infos, err := c.Locate(ctx, q)
		if err != nil {
			return nil, err
		}
		es := make([]resolve.Entry, len(infos))
		for i, info := range infos {
			es[i] = resolve.Entry{Endpoint: info.Endpoint, Value: info}
		}
		return es, nil
	})
	if err != nil {
		return nil, err
	}
	infos := make([]*ServiceInfo, len(entries))
	for i, e := range entries {
		infos[i] = e.Value.(*ServiceInfo)
	}
	return infos, nil
}

// NewFailoverInvocationFor is the cached composite the resolution layer
// exists for: resolve the query through the cache and bind a failover
// invocation to every located endpoint in the cache's (health-demoted)
// preference order. Repeated calls for the same query cost a map hit,
// not a discovery fan-out.
func (c *Client) NewFailoverInvocationFor(ctx context.Context, q ServiceQuery) (*Invocation, error) {
	infos, err := c.LocateCached(ctx, q)
	if err != nil {
		return nil, err
	}
	if len(infos) == 0 {
		return nil, fmt.Errorf("core: no service found for %q", q.QueryName())
	}
	return c.NewFailoverInvocation(infos...)
}

// ---------------------------------------------------------------------------
// Scheduler configuration and scatter-gather invocation

// ConfigureScheduler replaces the client's bounded invocation scheduler
// — the worker pool behind InvokeAsync and InvokeMany — with one built
// from opts. Tasks already queued on the previous scheduler still drain
// through its workers.
func (c *Client) ConfigureScheduler(opts SchedulerOptions) {
	s := newScheduler(opts)
	c.mu.Lock()
	c.sched = s
	c.mu.Unlock()
}

// SchedulerStats returns a point-in-time snapshot of the client's
// invocation scheduler.
func (c *Client) SchedulerStats() SchedulerStats {
	return c.schedulerRef().stats()
}

func (c *Client) schedulerRef() *scheduler {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sched
}

// ManyResult is one endpoint's outcome within an InvokeMany scatter.
type ManyResult struct {
	// Service is the target this slot invoked.
	Service *ServiceInfo
	// Result is the decoded result (nil for one-way operations and on
	// errors).
	Result *engine.Result
	// Err is the invocation error, a *resilience.OverloadError if the
	// scheduler shed the slot, or the target-resolution error if no
	// invoker serves the endpoint's scheme.
	Err error
}

// InvokeMany invokes one operation against every given service
// concurrently — the scatter-gather bulk mode for a cached multi-
// endpoint resolution (LocateCached feeds it directly). Each invocation
// runs on the client's bounded scheduler, so a 1000-endpoint scatter
// holds at most MaxConcurrent invocations in flight; results come back
// in input order, one per target, with per-slot errors rather than a
// first-error abort. It blocks until every slot has an outcome; do not
// call it from inside another scheduled invocation's callback.
func (c *Client) InvokeMany(ctx context.Context, svcs []*ServiceInfo, op string, params []engine.Param) []ManyResult {
	out := make([]ManyResult, len(svcs))
	var wg sync.WaitGroup
	sched := c.schedulerRef()
	for i, svc := range svcs {
		out[i].Service = svc
		inv, err := c.NewInvocation(svc)
		if err != nil {
			out[i].Err = err
			continue
		}
		wg.Add(1)
		slot := &out[i]
		sched.submit(ctx,
			func() {
				defer wg.Done()
				slot.Result, slot.Err = inv.Invoke(ctx, op, params...)
			},
			func(err error) {
				defer wg.Done()
				slot.Err = err
			})
	}
	wg.Wait()
	return out
}
