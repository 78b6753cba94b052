package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/pipeline"
)

// SyncAsyncResult compares synchronous sequential invocation against the
// event-driven asynchronous mode on a population of services with
// heavy-tailed response times — the paper's argument that "asynchronicity
// allows for P2P style interactions with unreliable nodes" (§III).
type SyncAsyncResult struct {
	Services     int
	SyncWall     time.Duration
	AsyncWall    time.Duration
	Speedup      float64
	SlowestNode  time.Duration
	MedianNode   time.Duration
	AsyncInOrder bool // whether async results arrived out of request order
}

// slowInvoker simulates remote services whose latencies follow a
// heavy-tailed distribution (a few very slow "unreliable" nodes).
type slowInvoker struct {
	delays map[string]time.Duration
}

func (s *slowInvoker) Schemes() []string { return []string{"slow"} }

func (s *slowInvoker) Invoke(c *pipeline.Call, svc *core.ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	d := s.delays[svc.Name]
	select {
	case <-time.After(d):
	case <-c.Ctx.Done():
		return nil, c.Ctx.Err()
	}
	return nil, nil
}

// RunSyncVsAsync measures E7: total wall-clock to collect a response from
// every one of n services, sequential-synchronous vs all-asynchronous.
func RunSyncVsAsync(seed int64, n int, meanLatency time.Duration) (*SyncAsyncResult, error) {
	rng := rand.New(rand.NewSource(seed))
	inv := &slowInvoker{delays: make(map[string]time.Duration, n)}
	var infos []*core.ServiceInfo
	var slowest time.Duration
	var all []time.Duration
	for i := 0; i < n; i++ {
		// Pareto-ish: most nodes fast, a few an order of magnitude slower.
		d := time.Duration(float64(meanLatency) * (0.2 + rng.ExpFloat64()))
		if rng.Intn(16) == 0 {
			d *= 8 // the unreliable stragglers
		}
		name := fmt.Sprintf("node-%03d", i)
		inv.delays[name] = d
		all = append(all, d)
		if d > slowest {
			slowest = d
		}
		infos = append(infos, &core.ServiceInfo{Name: name, Endpoint: "slow://" + name})
	}

	peer := core.NewPeer()
	peer.Client().RegisterInvoker(inv)
	ctx := context.Background()

	res := &SyncAsyncResult{Services: n, SlowestNode: slowest}
	// Median for the table.
	sorted := append([]time.Duration(nil), all...)
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	res.MedianNode = sorted[len(sorted)/2]

	// Synchronous: one at a time, the client blocked throughout.
	start := time.Now()
	for _, info := range infos {
		call, err := peer.Client().NewInvocation(info)
		if err != nil {
			return nil, err
		}
		if _, err := call.Invoke(ctx, "poll"); err != nil {
			return nil, err
		}
	}
	res.SyncWall = time.Since(start)

	// Asynchronous: fire everything, collect completions as events.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var order []string
	start = time.Now()
	for _, info := range infos {
		call, err := peer.Client().NewInvocation(info)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		name := info.Name
		call.InvokeAsync(ctx, "poll", nil, func(*engine.Result, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	res.AsyncWall = time.Since(start)
	res.Speedup = float64(res.SyncWall) / float64(res.AsyncWall)
	for i, name := range order {
		if name != infos[i].Name {
			res.AsyncInOrder = false
			break
		}
		res.AsyncInOrder = true
	}
	return res, nil
}

// SyncAsyncTable renders E7.
func SyncAsyncTable(r *SyncAsyncResult) *Table {
	inOrder := "out of request order (event-driven)"
	if r.AsyncInOrder {
		inOrder = "in request order"
	}
	return &Table{
		ID:      "E7",
		Title:   "synchronous vs asynchronous invocation of slow/unreliable nodes",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"services polled", fmt.Sprint(r.Services)},
			{"median node latency", r.MedianNode.Round(time.Millisecond).String()},
			{"slowest node latency", r.SlowestNode.Round(time.Millisecond).String()},
			{"synchronous wall-clock", r.SyncWall.Round(time.Millisecond).String()},
			{"asynchronous wall-clock", r.AsyncWall.Round(time.Millisecond).String()},
			{"speedup", f64(r.Speedup) + "x"},
			{"async completions arrived", inOrder},
		},
		Notes: []string{
			"shape check: async wall-clock ≈ slowest node; sync ≈ sum of all nodes",
		},
	}
}
