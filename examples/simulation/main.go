// Command simulation recreates the paper's NS2 scenario (§IV): "simulate
// large networks of peers publishing, discovering and invoking Web
// services in a distributed topology." The same P2PS protocol code that
// runs over TCP runs here over the discrete-event simulator with virtual
// time, so a thousand-peer overlay builds, publishes and resolves queries
// in milliseconds of wall-clock — deterministically for a given seed.
//
// Run it with:
//
//	go run ./examples/simulation [-peers 1000] [-seed 42]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"wspeer/internal/netsim/overlay"
	"wspeer/internal/p2ps"
)

func main() {
	peers := flag.Int("peers", 1000, "number of provider peers")
	seed := flag.Int64("seed", 42, "simulation seed")
	queries := flag.Int("queries", 200, "queries to run")
	flag.Parse()

	fmt.Printf("building a %d-peer overlay (seed %d)...\n", *peers, *seed)
	start := time.Now()
	net, err := overlay.Build(overlay.Config{
		Seed:       *seed,
		Providers:  *peers,
		Rendezvous: *peers / 32,
		Mode:       overlay.Mesh,
		Homes:      2,
	})
	if err != nil {
		log.Fatal(err)
	}
	built := time.Since(start)
	stats := net.Sim.Stats()
	fmt.Printf("built in %s wall-clock; virtual time %s; %d messages to attach and publish\n",
		built.Round(time.Millisecond), net.Sim.Now().Round(time.Millisecond), stats.Sent)

	// Every provider published one service; run a query workload.
	fmt.Printf("\nrunning %d discovery queries...\n", *queries)
	start = time.Now()
	ok, hops := net.RunQueries(*queries, nil)
	fmt.Printf("success %d/%d, mean hops %.2f, wall-clock %s\n",
		ok, *queries, hops, time.Since(start).Round(time.Millisecond))
	hottestName, hottestLoad := net.Sim.Hottest()
	fmt.Printf("hottest node: %s with %d messages\n", hottestName, hottestLoad)

	// A named lookup straight through the protocol API.
	target := overlay.ServiceName(*peers / 2)
	d := net.Providers[0].Discover(p2ps.Query{Name: target}, 2*time.Second)
	net.Sim.Run(0)
	if len(d.Matches()) == 0 {
		log.Fatalf("lookup of %s failed", target)
	}
	fmt.Printf("\nlookup %q: advert %s owned by peer %s\n",
		target, d.Matches()[0].ID, d.Matches()[0].Peer)

	// Kill a third of the network and watch discovery degrade gracefully.
	fmt.Println("\nkilling 33% of all nodes (providers and rendezvous alike)...")
	survivors := net.Kill(0.33, rand.New(rand.NewSource(*seed)))
	ok, _ = net.RunQueries(*queries, survivors)
	fmt.Printf("success %d/%d among the %d surviving providers\n", ok, *queries, len(survivors))
}
