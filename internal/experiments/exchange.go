package experiments

// The exchange-pattern experiment (E13) measures the three message
// exchange patterns of DESIGN.md §15 in calls per second over the
// in-memory substrate: plain request/response on the back channel,
// one-way fire-and-forget, and callback with the reply delivered as a
// separate message and correlated through the bounded table. The spread
// between the three is the price of correlation, not of the wire — the
// substrate is identical in all rows.

import (
	"context"
	"fmt"
	"testing"

	"wspeer"
)

// ThroughputResult is one E13 row: a testing.Benchmark run expressed in
// calls per second.
type ThroughputResult struct {
	Name string
	// NsPerOp is wall time per iteration; one iteration makes CallsPerOp
	// calls.
	NsPerOp    float64
	CallsPerOp int
	// CallsPerSec is the sustained rate: CallsPerOp / (NsPerOp in s).
	CallsPerSec float64
}

func toThroughput(name string, callsPerOp int, r testing.BenchmarkResult) ThroughputResult {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return ThroughputResult{
		Name:        name,
		NsPerOp:     ns,
		CallsPerOp:  callsPerOp,
		CallsPerSec: float64(callsPerOp) * 1e9 / ns,
	}
}

// RunExchangePatterns measures request/response, one-way and callback
// throughput against one in-memory echo service.
func RunExchangePatterns() ([]ThroughputResult, error) {
	net := wspeer.NewInMemNetwork()
	dir := wspeer.NewInMemDirectory()
	ctx := context.Background()

	provider := wspeer.NewPeer()
	pb, err := wspeer.NewInMemBinding(wspeer.InMemOptions{Network: net, Directory: dir})
	if err != nil {
		return nil, err
	}
	defer pb.Close()
	if err := provider.AttachBinding(pb); err != nil {
		return nil, err
	}
	def := wspeer.ServiceDef{
		Name: "ExchangeEcho",
		Operations: []wspeer.OperationDef{
			{Name: "echo", Func: func(s string) string { return s }, ParamNames: []string{"msg"}},
			{Name: "notify", Func: func(s string) error { return nil }, ParamNames: []string{"msg"}, OneWay: true},
		},
	}
	if _, err := provider.Server().DeployAndPublish(ctx, def); err != nil {
		return nil, err
	}

	consumer := wspeer.NewPeer()
	cb, err := wspeer.NewInMemBinding(wspeer.InMemOptions{Network: net, Directory: dir})
	if err != nil {
		return nil, err
	}
	defer cb.Close()
	if err := consumer.AttachBinding(cb); err != nil {
		return nil, err
	}
	defer consumer.Client().CloseExchange()
	info, err := consumer.Client().LocateOne(ctx, wspeer.NameQuery{Name: "ExchangeEcho"})
	if err != nil {
		return nil, err
	}
	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		return nil, err
	}

	var out []ThroughputResult
	var runErr error

	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "x")); err != nil {
				runErr = fmt.Errorf("request/response: %w", err)
				b.FailNow()
			}
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	out = append(out, toThroughput("ExchangeRequestResponse", 1, r))

	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := inv.InvokeOneWay(ctx, "notify", wspeer.P("msg", "x")); err != nil {
				runErr = fmt.Errorf("one-way: %w", err)
				b.FailNow()
			}
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	out = append(out, toThroughput("ExchangeOneWay", 1, r))

	r = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pending, err := inv.InvokeCallback(ctx, "echo", wspeer.P("msg", "x"))
			if err != nil {
				runErr = fmt.Errorf("callback send: %w", err)
				b.FailNow()
			}
			if _, err := pending.Wait(ctx); err != nil {
				runErr = fmt.Errorf("callback reply: %w", err)
				b.FailNow()
			}
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	out = append(out, toThroughput("ExchangeCallback", 1, r))

	stats := consumer.Client().ExchangeStats()
	if stats.Expired > 0 || stats.Orphans > 0 {
		return nil, fmt.Errorf("exchange table unhealthy after run: %+v", stats)
	}
	return out, nil
}

// ExchangePatternsTable renders the E13 measurements.
func ExchangePatternsTable(rs []ThroughputResult) *Table {
	t := &Table{
		ID:      "E13",
		Title:   "message exchange patterns: request/response vs one-way vs callback (in-memory substrate)",
		Columns: []string{"pattern", "calls/op", "ns/op", "calls/sec"},
		Notes: []string{
			"callback rows include reply correlation through the bounded table",
			"measured in-process via testing.Benchmark",
		},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.Name,
			fmt.Sprintf("%d", r.CallsPerOp),
			fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%.0f", r.CallsPerSec),
		})
	}
	return t
}
