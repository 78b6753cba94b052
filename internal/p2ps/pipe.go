package p2ps

import (
	"fmt"
	"sync"
)

// PipeListener is notified when data arrives on an input pipe ("The data is
// retrieved from a pipe by adding an entity as listener to the pipe").
type PipeListener func(from PeerID, data []byte)

// InputPipe receives data addressed to one of this peer's pipe IDs. Pipes
// are unidirectional: an InputPipe only receives.
type InputPipe struct {
	peer *Peer
	adv  PipeAdvertisement

	mu        sync.Mutex
	listeners []PipeListener
	closed    bool
}

// Advertisement returns a copy of the pipe's advertisement, suitable for
// publishing or serializing into a WS-Addressing EndpointReference.
func (p *InputPipe) Advertisement() *PipeAdvertisement {
	adv := p.adv
	return &adv
}

// AddListener registers a delivery callback.
func (p *InputPipe) AddListener(l PipeListener) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.listeners = append(p.listeners, l)
}

// Close detaches the pipe from its peer; subsequent data for it is dropped.
func (p *InputPipe) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.peer.removePipe(p.adv.ID)
}

// deliver fans data out to the listeners.
func (p *InputPipe) deliver(from PeerID, data []byte) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	ls := append([]PipeListener(nil), p.listeners...)
	p.mu.Unlock()
	for _, l := range ls {
		l(from, data)
	}
}

// OutputPipe sends data to a remote peer's input pipe. It is created by
// resolving a PipeAdvertisement to a transport address.
type OutputPipe struct {
	peer *Peer
	adv  PipeAdvertisement
	addr string
}

// RemoteAddr returns the resolved transport address of the owning peer.
func (o *OutputPipe) RemoteAddr() string { return o.addr }

// Send transmits data down the pipe.
func (o *OutputPipe) Send(data []byte) error {
	if o.addr == "" {
		return fmt.Errorf("p2ps: output pipe %q is unresolved", o.adv.ID)
	}
	m := &message{
		Type:   msgData,
		From:   o.peer.ID(),
		Addr:   o.peer.Addr(),
		Group:  o.peer.Group(),
		PipeID: o.adv.ID,
		Data:   data,
	}
	return o.peer.transport.Send(o.addr, m.encode())
}
