// Package netsim is a deterministic discrete-event network simulator. It
// substitutes for the NS2+AgentJ setup the paper uses to "simulate large
// networks of peers publishing, discovering and invoking Web services in a
// distributed topology" (§IV): the same P2PS protocol code that runs over
// real sockets runs unmodified over simulated endpoints, with virtual time,
// per-link latency/jitter/loss, and message accounting.
//
// The simulator is single-threaded: all deliveries and timers execute on
// the event loop in timestamp order, so a given seed reproduces a run
// bit-for-bit.
package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Link describes one direction of connectivity between two endpoints.
type Link struct {
	// Latency is the fixed propagation delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the probability in [0,1] that a message is dropped.
	Loss float64
	// Fault, when set, lets a fault injector inspect each message that
	// survived Loss and drop or further delay it (resilience.Injector's
	// LinkFault adapts onto this). It composes after Loss and before
	// Latency/Jitter; drops it requests are counted as Dropped.
	Fault func(from, to string, data []byte) (drop bool, extra time.Duration)
}

// Stats aggregates message accounting for a run.
type Stats struct {
	Sent      int64
	Delivered int64
	Dropped   int64 // lost on the link
	Dead      int64 // addressed to a failed/unknown endpoint
	Bytes     int64
}

// event is a scheduled occurrence: a delivery or a timer.
type event struct {
	at  time.Duration
	seq int64 // tie-break for determinism
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Simulator is the event loop, topology and clock.
type Simulator struct {
	mu        sync.Mutex
	rng       *rand.Rand
	now       time.Duration
	seq       int64
	queue     eventQueue
	endpoints map[string]*Endpoint
	defLink   Link
	links     map[[2]string]Link
	stats     Stats
	received  map[string]int64
}

// New returns a simulator seeded for reproducibility. The default link is
// 10ms latency, 2ms jitter, no loss.
func New(seed int64) *Simulator {
	return &Simulator{
		rng:       rand.New(rand.NewSource(seed)),
		endpoints: make(map[string]*Endpoint),
		links:     make(map[[2]string]Link),
		defLink:   Link{Latency: 10 * time.Millisecond, Jitter: 2 * time.Millisecond},
		received:  make(map[string]int64),
	}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// SetDefaultLink sets the link parameters used for pairs without an
// explicit link.
func (s *Simulator) SetDefaultLink(l Link) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.defLink = l
}

// SetLink sets the parameters for messages from a to b (one direction).
func (s *Simulator) SetLink(from, to string, l Link) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.links[[2]string{from, to}] = l
}

// Stats returns a snapshot of the accounting counters.
func (s *Simulator) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Received reports how many messages an endpoint has been delivered.
func (s *Simulator) Received(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received[name]
}

// ReceivedSnapshot copies the per-endpoint delivery counters, letting
// experiments compute deltas between phases.
func (s *Simulator) ReceivedSnapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.received))
	for k, v := range s.received {
		out[k] = v
	}
	return out
}

// Hottest returns the endpoint that has received the most messages — the
// bottleneck measurement for the discovery-scaling experiment.
func (s *Simulator) Hottest() (name string, count int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n, c := range s.received {
		if c > count || (c == count && (name == "" || n < name)) {
			name, count = n, c
		}
	}
	return name, count
}

// schedule must be called with s.mu held.
func (s *Simulator) schedule(delay time.Duration, fn func()) *event {
	s.seq++
	e := &event{at: s.now + delay, seq: s.seq, fn: fn}
	heap.Push(&s.queue, e)
	return e
}

// AfterFunc schedules fn on the event loop after virtual delay d, returning
// a cancel function. It implements the protocol Clock interface.
func (s *Simulator) AfterFunc(d time.Duration, fn func()) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	cancelled := false
	e := s.schedule(d, func() {
		if !cancelled {
			fn()
		}
	})
	_ = e
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		cancelled = true
	}
}

// Run processes events until the queue is empty or maxEvents have executed
// (0 means no bound). It returns the number of events processed.
func (s *Simulator) Run(maxEvents int) int {
	n := 0
	for {
		s.mu.Lock()
		if len(s.queue) == 0 || (maxEvents > 0 && n >= maxEvents) {
			s.mu.Unlock()
			return n
		}
		e := heap.Pop(&s.queue).(*event)
		s.now = e.at
		s.mu.Unlock()
		e.fn() // runs without the lock; handlers may send/schedule
		n++
	}
}

// RunFor processes events with timestamps up to the given virtual duration
// from now, advancing the clock to exactly that point.
func (s *Simulator) RunFor(d time.Duration) int {
	s.mu.Lock()
	deadline := s.now + d
	s.mu.Unlock()
	n := 0
	for {
		s.mu.Lock()
		if len(s.queue) == 0 || s.queue[0].at > deadline {
			s.now = deadline
			s.mu.Unlock()
			return n
		}
		e := heap.Pop(&s.queue).(*event)
		s.now = e.at
		s.mu.Unlock()
		e.fn()
		n++
	}
}

// ---------------------------------------------------------------------------
// Endpoints

// Receiver handles a delivered message.
type Receiver func(from string, data []byte)

// Endpoint is a simulated network attachment point.
type Endpoint struct {
	sim    *Simulator
	name   string
	mu     sync.Mutex
	recv   Receiver
	closed bool
}

// NewEndpoint attaches a named endpoint to the simulator.
func (s *Simulator) NewEndpoint(name string) (*Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.endpoints[name]; exists {
		return nil, fmt.Errorf("netsim: endpoint %q already exists", name)
	}
	ep := &Endpoint{sim: s, name: name}
	s.endpoints[name] = ep
	return ep, nil
}

// Addr returns the endpoint's address ("sim://name").
func (ep *Endpoint) Addr() string { return "sim://" + ep.name }

// SetReceiver installs the delivery callback.
func (ep *Endpoint) SetReceiver(r func(from string, data []byte)) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.recv = r
}

// Close detaches the endpoint: pending and future messages to it are
// counted as Dead. Closing models node failure.
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	ep.closed = true
	ep.mu.Unlock()
	ep.sim.mu.Lock()
	delete(ep.sim.endpoints, ep.name)
	ep.sim.mu.Unlock()
	return nil
}

// Closed reports whether the endpoint has been closed.
func (ep *Endpoint) Closed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.closed
}

// Send schedules delivery of data to the named endpoint ("sim://x" or
// bare "x"). Sending never blocks; loss and dead destinations are recorded
// in the statistics rather than returned as errors (matching datagram
// semantics).
func (ep *Endpoint) Send(to string, data []byte) error {
	if len(to) > 6 && to[:6] == "sim://" {
		to = to[6:]
	}
	s := ep.sim
	s.mu.Lock()
	defer s.mu.Unlock()
	if ep.closed {
		return fmt.Errorf("netsim: send on closed endpoint %q", ep.name)
	}
	s.stats.Sent++
	s.stats.Bytes += int64(len(data))
	link, ok := s.links[[2]string{ep.name, to}]
	if !ok {
		link = s.defLink
	}
	if link.Loss > 0 && s.rng.Float64() < link.Loss {
		s.stats.Dropped++
		return nil
	}
	delay := link.Latency
	if link.Fault != nil {
		drop, extra := link.Fault(ep.name, to, data)
		if drop {
			s.stats.Dropped++
			return nil
		}
		delay += extra
	}
	if link.Jitter > 0 {
		delay += time.Duration(s.rng.Int63n(int64(link.Jitter)))
	}
	from := ep.name
	payload := append([]byte(nil), data...)
	s.schedule(delay, func() {
		s.mu.Lock()
		dst, alive := s.endpoints[to]
		if alive {
			s.stats.Delivered++
			s.received[to]++
		} else {
			s.stats.Dead++
		}
		s.mu.Unlock()
		if !alive {
			return
		}
		dst.mu.Lock()
		recv := dst.recv
		closed := dst.closed
		dst.mu.Unlock()
		if recv != nil && !closed {
			recv("sim://"+from, payload)
		}
	})
	return nil
}
