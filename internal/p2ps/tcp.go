package p2ps

import (
	"bufio"
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
// shares it, so a frame is written under wmu: a large frame takes several
// system calls, and without the lock concurrent senders interleave them and
// the receiver loses framing.
type tcpConn struct {
	net.Conn
	wmu sync.Mutex
	// The frame being written, under wmu: its length prefix and the two
	// buffers of the one vectored write, kept here so that a send
	// allocates nothing.
	hdr [4]byte
	vec [2][]byte
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
	err := conn.writeFrame(data)
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
	r := frameReader{conn: conn, br: bufio.NewReader(conn)}
	for {
		data, err := r.next()
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

// writeFrame sends the length prefix and the body as one vectored write,
// so a frame reaches the receiver whole: written apart, the prefix wakes
// the reader, which then finds the body there or not depending on how the
// two sides happen to be scheduled. The caller holds wmu.
func (c *tcpConn) writeFrame(data []byte) error {
	binary.BigEndian.PutUint32(c.hdr[:], uint32(len(data)))
	c.vec[0], c.vec[1] = c.hdr[:], data
	bufs := net.Buffers(c.vec[:])
	_, err := bufs.WriteTo(c.Conn)
	c.vec[1] = nil
	return err
}

// frameReader reads one connection's frames through a buffer, so a frame
// that arrived whole costs one read.
type frameReader struct {
	conn  net.Conn
	br    *bufio.Reader
	timed bool // a read deadline is set on conn
}

// next returns the next frame's body in a buffer of its own, which nothing
// writes again: receivers may keep slices of it (see decodeMessage).
func (r *frameReader) next() ([]byte, error) {
	// Waiting for the next frame is unbounded: idle pipes are legitimate.
	if r.timed {
		r.conn.SetReadDeadline(time.Time{})
		r.timed = false
	}
	hdr, err := r.br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("p2ps: frame of %d bytes exceeds limit", n)
	}
	r.br.Discard(4)
	// A started frame must finish promptly; a peer that goes silent
	// mid-frame would otherwise hold this read loop hostage forever. A
	// body that is already here needs no deadline.
	if uint32(r.br.Buffered()) < n {
		r.conn.SetReadDeadline(time.Now().Add(frameTimeout))
		r.timed = true
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r.br, data); err != nil {
		return nil, err
	}
	return data, nil
}
