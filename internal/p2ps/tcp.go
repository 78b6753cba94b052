package p2ps

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// maxFrame bounds a single P2PS datagram over TCP.
const maxFrame = 16 << 20

// Timeouts keeping a black-holed peer from wedging a pipe: dials and
// frame writes are bounded, and once a frame header arrives its body must
// follow promptly. Waiting for the next header is NOT bounded — an idle
// but healthy pipe stays up indefinitely.
const (
	dialTimeout  = 5 * time.Second
	writeTimeout = 10 * time.Second
	frameTimeout = 30 * time.Second
)

// TCPTransport carries P2PS datagrams over TCP with length-prefixed frames.
// Connections are opened on demand per destination and reused; incoming
// connections are read until EOF. It satisfies the Transport interface for
// real (non-simulated) deployments, addressed as "tcp://host:port".
type TCPTransport struct {
	ln   net.Listener
	addr string // "tcp://host:port", fixed once listening

	mu       sync.Mutex
	recv     func(from string, data []byte)
	conns    map[string]*tcpConn // outbound, keyed by destination
	accepted map[net.Conn]bool   // inbound
	closed   bool
	wg       sync.WaitGroup
}

// tcpConn is one cached outbound connection. Every sender to a destination
// shares it, so a frame's header and body are written under wmu: without
// it concurrent senders interleave their writes and the receiver loses
// framing.
type tcpConn struct {
	net.Conn
	wmu sync.Mutex
}

// NewTCPTransport listens on addr ("127.0.0.1:0" for an ephemeral port).
func NewTCPTransport(addr string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("p2ps: tcp listen: %w", err)
	}
	t := &TCPTransport{
		ln:       ln,
		addr:     "tcp://" + ln.Addr().String(),
		conns:    make(map[string]*tcpConn),
		accepted: make(map[net.Conn]bool),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport address ("tcp://host:port").
func (t *TCPTransport) Addr() string { return t.addr }

// SetReceiver implements Transport.
func (t *TCPTransport) SetReceiver(fn func(from string, data []byte)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recv = fn
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = map[string]*tcpConn{}
	inbound := t.accepted
	t.accepted = map[net.Conn]bool{}
	t.mu.Unlock()
	err := t.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	for c := range inbound {
		c.Close()
	}
	t.wg.Wait()
	return err
}

// Send implements Transport: datagram semantics over a cached stream.
func (t *TCPTransport) Send(to string, data []byte) error {
	if len(to) > 6 && to[:6] == "tcp://" {
		to = to[6:]
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("p2ps: send on closed transport")
	}
	conn, ok := t.conns[to]
	t.mu.Unlock()
	if !ok {
		nc, err := (&net.Dialer{Timeout: dialTimeout}).Dial("tcp", to)
		if err != nil {
			return nil // unreachable destination: datagram drop
		}
		conn = &tcpConn{Conn: nc}
		t.mu.Lock()
		if existing, raced := t.conns[to]; raced {
			conn.Close()
			conn = existing
		} else {
			t.conns[to] = conn
		}
		t.mu.Unlock()
	}
	conn.wmu.Lock()
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	err := writeFrame(conn, data)
	conn.wmu.Unlock()
	if err != nil {
		// Connection went bad: forget it. The datagram is lost.
		t.mu.Lock()
		if t.conns[to] == conn {
			delete(t.conns, to)
		}
		t.mu.Unlock()
		conn.Close()
	}
	return nil
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	from := "tcp://" + conn.RemoteAddr().String()
	for {
		data, err := readFrame(conn)
		if err != nil {
			return
		}
		t.mu.Lock()
		recv := t.recv
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		if recv != nil {
			recv(from, data)
		}
	}
}

func writeFrame(w io.Writer, data []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

func readFrame(conn net.Conn) ([]byte, error) {
	// Waiting for the next frame is unbounded: idle pipes are legitimate.
	conn.SetReadDeadline(time.Time{})
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("p2ps: frame of %d bytes exceeds limit", n)
	}
	// A started frame must finish promptly; a peer that goes silent
	// mid-frame would otherwise hold this read loop hostage forever.
	conn.SetReadDeadline(time.Now().Add(frameTimeout))
	data := make([]byte, n)
	if _, err := io.ReadFull(conn, data); err != nil {
		return nil, err
	}
	return data, nil
}
