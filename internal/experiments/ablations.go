package experiments

import (
	"fmt"
	"time"

	"wspeer/internal/netsim"
	"wspeer/internal/p2ps"
)

// TTLRow is one A1 measurement: query reach on a rendezvous chain as a
// function of the query's TTL.
type TTLRow struct {
	TTL      int
	Chain    int
	Success  bool
	Messages int64
	Hops     float64
}

// RunTTLSweep measures A1: a chain of rendezvous with the provider's home
// at the far end. A query entering at the near end needs TTL ≥ chain-1 to
// reach the advert; every extra TTL hop also costs messages. This is the
// knob the paper's rendezvous design trades between reach and traffic.
func RunTTLSweep(seed int64, chain int, ttls []int) ([]TTLRow, error) {
	var rows []TTLRow
	for _, ttl := range ttls {
		sim := netsim.New(seed)
		sim.SetDefaultLink(netsim.Link{Latency: 5 * time.Millisecond})

		// Build the chain: rendezvous i seeded only with rendezvous i-1.
		rdvs := make([]*p2ps.Peer, chain)
		for i := range rdvs {
			ep, err := sim.NewEndpoint(fmt.Sprintf("rdv-%02d", i))
			if err != nil {
				return nil, err
			}
			var seeds []string
			if i > 0 {
				seeds = []string{rdvs[i-1].Addr()}
			}
			peer, err := p2ps.NewPeer(p2ps.Config{
				Rendezvous: true, Transport: ep, Clock: sim,
				QueryTTL: ttl, Seeds: seeds,
			})
			if err != nil {
				return nil, err
			}
			rdvs[i] = peer
			sim.Run(0)
		}
		provEP, err := sim.NewEndpoint("provider")
		if err != nil {
			return nil, err
		}
		provider, err := p2ps.NewPeer(p2ps.Config{
			Transport: provEP, Clock: sim, QueryTTL: ttl,
			Seeds: []string{rdvs[chain-1].Addr()},
		})
		if err != nil {
			return nil, err
		}
		consEP, err := sim.NewEndpoint("consumer")
		if err != nil {
			return nil, err
		}
		consumer, err := p2ps.NewPeer(p2ps.Config{
			Transport: consEP, Clock: sim, QueryTTL: ttl,
			Seeds: []string{rdvs[0].Addr()},
		})
		if err != nil {
			return nil, err
		}
		sim.Run(0)
		if _, err := provider.PublishService(&p2ps.ServiceAdvertisement{Name: "Far"}); err != nil {
			return nil, err
		}
		sim.Run(0)

		before := sim.Stats()
		d := consumer.Discover(p2ps.Query{Name: "Far"}, 5*time.Second)
		sim.Run(0)
		after := sim.Stats()
		rows = append(rows, TTLRow{
			TTL:      ttl,
			Chain:    chain,
			Success:  len(d.Matches()) > 0,
			Messages: after.Sent - before.Sent,
			Hops:     d.MeanHops(),
		})
	}
	return rows, nil
}

// TTLTable renders A1.
func TTLTable(rows []TTLRow) *Table {
	t := &Table{
		ID:      "A1",
		Title:   "ablation: query TTL vs reach and cost on a rendezvous chain",
		Columns: []string{"chain", "ttl", "found", "msgs/query", "hops to match"},
		Notes: []string{
			"the advert is cached at the far end of the chain; TTL bounds propagation",
			"shape check: success flips on at ttl = chain length; message cost grows with ttl",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Chain), fmt.Sprint(r.TTL), fmt.Sprint(r.Success),
			fmt.Sprint(r.Messages), f64(r.Hops),
		})
	}
	return t
}
