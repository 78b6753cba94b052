package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"wspeer"
	"wspeer/internal/engine"
	"wspeer/internal/httpd"
	"wspeer/internal/p2ps"
)

// LifecycleResult times the four phases of Fig. 3/Fig. 4 plus invocation
// throughput at several concurrency levels.
type LifecycleResult struct {
	Binding    string
	Deploy     time.Duration
	Publish    time.Duration
	Locate     time.Duration
	Invoke     time.Duration // single synchronous invocation
	Throughput map[int]float64
}

func lifecycleEcho() wspeer.ServiceDef {
	return wspeer.ServiceDef{
		Name: "Echo",
		Operations: []wspeer.OperationDef{{
			Name:       "echo",
			Func:       func(s string) string { return s },
			ParamNames: []string{"msg"},
		}},
	}
}

// RunHTTPLifecycle measures E2: the standard implementation's
// deploy→publish→locate→invoke over real HTTP and a real registry node.
func RunHTTPLifecycle(concurrency []int, invokesPerLevel int) (*LifecycleResult, error) {
	ctx := context.Background()
	registryHost := httpd.New(engine.New(), httpd.Options{})
	defer registryHost.Close()
	registryURL, err := registryHost.Deploy(wspeer.UDDIServiceDef(wspeer.NewUDDIRegistry()))
	if err != nil {
		return nil, err
	}

	provider := wspeer.NewPeer()
	pb, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{UDDIEndpoint: registryURL})
	if err != nil {
		return nil, err
	}
	defer pb.Close()
	pb.Attach(provider)

	consumer := wspeer.NewPeer()
	cb, err := wspeer.NewHTTPBinding(wspeer.HTTPOptions{UDDIEndpoint: registryURL})
	if err != nil {
		return nil, err
	}
	defer cb.Close()
	cb.Attach(consumer)

	res := &LifecycleResult{Binding: "http/uddi", Throughput: map[int]float64{}}

	start := time.Now()
	dep, err := provider.Server().Deploy(lifecycleEcho())
	if err != nil {
		return nil, err
	}
	res.Deploy = time.Since(start)

	start = time.Now()
	if err := provider.Server().Publish(ctx, dep); err != nil {
		return nil, err
	}
	res.Publish = time.Since(start)

	start = time.Now()
	info, err := consumer.Client().LocateOne(ctx, wspeer.NameQuery{Name: "Echo"})
	if err != nil {
		return nil, err
	}
	res.Locate = time.Since(start)

	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if _, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "x")); err != nil {
		return nil, err
	}
	res.Invoke = time.Since(start)

	for _, c := range concurrency {
		tput, err := measureThroughput(ctx, consumer, info, c, invokesPerLevel)
		if err != nil {
			return nil, err
		}
		res.Throughput[c] = tput
	}
	return res, nil
}

// newP2PSPair stands up a rendezvous and two P2PS-bound peers attached to
// it on an in-process overlay; closeAll detaches all three.
func newP2PSPair() (provider, consumer *wspeer.Peer, closeAll func(), err error) {
	overlay := p2ps.NewLocalNetwork()
	rdv, err := p2ps.NewPeer(p2ps.Config{Transport: overlay.NewEndpoint(), Rendezvous: true})
	if err != nil {
		return nil, nil, nil, err
	}
	nodes := []*p2ps.Peer{rdv}
	closeAll = func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	mk := func() (*wspeer.Peer, error) {
		node, err := p2ps.NewPeer(p2ps.Config{Transport: overlay.NewEndpoint(), Seeds: []string{rdv.Addr()}})
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, node)
		b, err := wspeer.NewP2PSBinding(wspeer.P2PSOptions{Peer: node, DiscoveryTimeout: 250 * time.Millisecond})
		if err != nil {
			return nil, err
		}
		p := wspeer.NewPeer()
		b.Attach(p)
		return p, nil
	}
	if provider, err = mk(); err == nil {
		consumer, err = mk()
	}
	if err != nil {
		closeAll()
		return nil, nil, nil, err
	}
	return provider, consumer, closeAll, nil
}

// locateP2PS retries LocateOne until the advert has propagated: publication
// on the overlay is asynchronous.
func locateP2PS(ctx context.Context, consumer *wspeer.Peer, name string) (*wspeer.ServiceInfo, error) {
	var err error
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		var info *wspeer.ServiceInfo
		if info, err = consumer.Client().LocateOne(ctx, wspeer.NameQuery{Name: name}); err == nil {
			return info, nil
		}
	}
	return nil, fmt.Errorf("p2ps locate never succeeded: %v", err)
}

// RunP2PSLifecycle measures E3: the same four phases over the P2PS
// binding on an in-process overlay.
func RunP2PSLifecycle(concurrency []int, invokesPerLevel int) (*LifecycleResult, error) {
	ctx := context.Background()
	provider, consumer, closeAll, err := newP2PSPair()
	if err != nil {
		return nil, err
	}
	defer closeAll()

	res := &LifecycleResult{Binding: "p2ps", Throughput: map[int]float64{}}

	start := time.Now()
	dep, err := provider.Server().Deploy(lifecycleEcho())
	if err != nil {
		return nil, err
	}
	res.Deploy = time.Since(start)

	start = time.Now()
	if err := provider.Server().Publish(ctx, dep); err != nil {
		return nil, err
	}
	res.Publish = time.Since(start)

	start = time.Now()
	info, err := locateP2PS(ctx, consumer, "Echo")
	if err != nil {
		return nil, err
	}
	res.Locate = time.Since(start)

	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if _, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "x")); err != nil {
		return nil, err
	}
	res.Invoke = time.Since(start)

	for _, c := range concurrency {
		tput, err := measureThroughput(ctx, consumer, info, c, invokesPerLevel)
		if err != nil {
			return nil, err
		}
		res.Throughput[c] = tput
	}
	return res, nil
}

// measureThroughput runs total invocations across c workers and returns
// invocations per second.
func measureThroughput(ctx context.Context, consumer *wspeer.Peer, info *wspeer.ServiceInfo, c, total int) (float64, error) {
	inv, err := consumer.Client().NewInvocation(info)
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	errCh := make(chan error, c)
	per := total / c
	if per == 0 {
		per = 1
	}
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := inv.Invoke(ctx, "echo", wspeer.P("msg", "x")); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	return float64(c*per) / elapsed.Seconds(), nil
}

// LifecycleTable renders E2/E3.
func LifecycleTable(id string, results ...*LifecycleResult) *Table {
	t := &Table{
		ID:      id,
		Title:   "service lifecycle: deploy → publish → locate → invoke (figures 3 and 4)",
		Columns: []string{"binding", "deploy", "publish", "locate", "invoke(1)"},
	}
	concs := map[int]bool{}
	for _, r := range results {
		for c := range r.Throughput {
			concs[c] = true
		}
	}
	var levels []int
	for c := range concs {
		levels = append(levels, c)
	}
	for i := 0; i < len(levels); i++ {
		for j := i + 1; j < len(levels); j++ {
			if levels[j] < levels[i] {
				levels[i], levels[j] = levels[j], levels[i]
			}
		}
	}
	for _, c := range levels {
		t.Columns = append(t.Columns, fmt.Sprintf("inv/s @%d", c))
	}
	for _, r := range results {
		row := []string{
			r.Binding,
			r.Deploy.Round(time.Microsecond).String(),
			r.Publish.Round(time.Microsecond).String(),
			r.Locate.Round(time.Microsecond).String(),
			r.Invoke.Round(time.Microsecond).String(),
		}
		for _, c := range levels {
			row = append(row, f64(r.Throughput[c]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
