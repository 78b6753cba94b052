// Package overlay builds P2PS discovery overlays on the netsim simulator:
// rendezvous peers and edge providers, each provider publishing one
// service, arranged as the paper's §II contrasts them — one central
// directory, or a rendezvous mesh — and settled in virtual time.
//
// It is what examples/simulation runs and what the discovery claims in the
// root package's claims_test.go (E5 scaling, E6 node failure) assert
// against: the shapes of load and success, never wall-clock times.
package overlay

import (
	"fmt"
	"math/rand"
	"time"

	"wspeer/internal/netsim"
	"wspeer/internal/p2ps"
)

// Mode selects the discovery architecture.
type Mode string

// The three architectures the discovery claims compare.
const (
	// Central is a single directory node every peer publishes to and
	// queries — the UDDI-shaped architecture whose "number of server
	// entities does not grow proportionately with the overall number of
	// nodes" (paper §II).
	Central Mode = "central"
	// Mesh is a rendezvous mesh with advert caching and replication:
	// P2PS's default.
	Mesh Mode = "p2ps-mesh"
	// Flood turns the rendezvous cache off: rendezvous flood queries to
	// attached peers, which answer from their local adverts.
	Flood Mode = "p2ps-flood"
)

// Overlay is a simulated P2PS network.
type Overlay struct {
	Sim       *netsim.Simulator
	Rdvs      []*p2ps.Peer
	Providers []*p2ps.Peer
	rng       *rand.Rand
}

// Config sizes an overlay.
type Config struct {
	Seed       int64
	Providers  int // edge peers, each publishing one unique service
	Rendezvous int // 1 = centralized directory
	Mode       Mode
	// Homes is how many rendezvous each edge peer attaches to (default
	// 1). Multi-homing is the P2P resilience mechanism: adverts and
	// queries survive the loss of any single home rendezvous.
	Homes int
}

// ServiceName returns the service the i'th provider publishes.
func ServiceName(i int) string { return fmt.Sprintf("Svc-%04d", i) }

// Build constructs the overlay, publishes every provider's service and
// settles the network.
func Build(cfg Config) (*Overlay, error) {
	if cfg.Rendezvous < 1 {
		cfg.Rendezvous = 1
	}
	sim := netsim.New(cfg.Seed)
	sim.SetDefaultLink(netsim.Link{Latency: 10 * time.Millisecond, Jitter: 2 * time.Millisecond})
	o := &Overlay{Sim: sim, rng: rand.New(rand.NewSource(cfg.Seed + 1))}

	// Rendezvous mesh: each rendezvous is seeded with all previous ones.
	// In mesh mode the directory is replicated across the rendezvous, so
	// queries are answered at their entry rendezvous (TTL 1); flood mode
	// must propagate to reach the providers themselves.
	queryTTL := 7
	if cfg.Mode == Mesh {
		queryTTL = 1
	}
	var rdvAddrs []string
	for i := 0; i < cfg.Rendezvous; i++ {
		name := fmt.Sprintf("rdv-%03d", i)
		ep, err := sim.NewEndpoint(name)
		if err != nil {
			return nil, err
		}
		peer, err := p2ps.NewPeer(p2ps.Config{
			Name:             name,
			Rendezvous:       true,
			Transport:        ep,
			Clock:            sim,
			QueryTTL:         queryTTL,
			DisableCache:     cfg.Mode == Flood,
			ReplicateAdverts: cfg.Mode == Mesh,
			Seeds:            append([]string(nil), rdvAddrs...),
		})
		if err != nil {
			return nil, err
		}
		o.Rdvs = append(o.Rdvs, peer)
		rdvAddrs = append(rdvAddrs, peer.Addr())
		sim.Run(0)
	}

	homes := min(max(cfg.Homes, 1), len(o.Rdvs))
	// Providers: attached round-robin (to `homes` distinct rendezvous),
	// each publishing one service.
	for i := 0; i < cfg.Providers; i++ {
		name := fmt.Sprintf("peer-%05d", i)
		ep, err := sim.NewEndpoint(name)
		if err != nil {
			return nil, err
		}
		seeds := make([]string, 0, homes)
		for h := 0; h < homes; h++ {
			seeds = append(seeds, o.Rdvs[(i+h)%len(o.Rdvs)].Addr())
		}
		peer, err := p2ps.NewPeer(p2ps.Config{
			Name:      name,
			Transport: ep,
			Clock:     sim,
			QueryTTL:  queryTTL,
			Seeds:     seeds,
		})
		if err != nil {
			return nil, err
		}
		if _, err := peer.PublishService(&p2ps.ServiceAdvertisement{Name: ServiceName(i)}); err != nil {
			return nil, err
		}
		o.Providers = append(o.Providers, peer)
	}
	sim.Run(0)
	return o, nil
}

// Kill closes a fraction of all nodes, rendezvous and providers alike,
// chosen by rng, and returns the indices of the providers still alive.
func (o *Overlay) Kill(frac float64, rng *rand.Rand) (survivors map[int]bool) {
	survivors = make(map[int]bool, len(o.Providers))
	for i := range o.Providers {
		survivors[i] = true
	}
	nodes := len(o.Rdvs) + len(o.Providers)
	for _, idx := range rng.Perm(nodes)[:int(frac*float64(nodes))] {
		if idx < len(o.Rdvs) {
			o.Rdvs[idx].Close()
			continue
		}
		p := idx - len(o.Rdvs)
		o.Providers[p].Close()
		delete(survivors, p)
	}
	return survivors
}

// RunQueries issues n queries from random providers for random services
// and reports how many succeeded, plus the mean hop count of successful
// matches. survivors filters which providers' services are considered
// reachable targets and which peers may issue queries (nil = all).
func (o *Overlay) RunQueries(n int, survivors map[int]bool) (succeeded int, meanHops float64) {
	var hopTotal float64
	alive := make([]int, 0, len(o.Providers))
	for i := range o.Providers {
		if survivors == nil || survivors[i] {
			alive = append(alive, i)
		}
	}
	if len(alive) < 2 {
		return 0, 0
	}
	for q := 0; q < n; q++ {
		from := alive[o.rng.Intn(len(alive))]
		target := alive[o.rng.Intn(len(alive))]
		d := o.Providers[from].Discover(p2ps.Query{Name: ServiceName(target)}, 2*time.Second)
		o.Sim.Run(0)
		if len(d.Matches()) > 0 {
			succeeded++
			hopTotal += d.MeanHops()
		}
	}
	if succeeded > 0 {
		meanHops = hopTotal / float64(succeeded)
	}
	return succeeded, meanHops
}
