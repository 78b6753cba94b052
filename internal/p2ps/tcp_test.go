package p2ps

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestTCPTransportConcurrentSendersKeepFraming has 8 goroutines send 500
// frames each, every frame of a distinct length, to one destination over
// the one cached connection. The senders share the connection's length
// prefix and write vector, so without the per-connection write lock one
// frame goes out under another's length and the receiver loses framing:
// frames go missing or arrive with a foreign body.
func TestTCPTransportConcurrentSendersKeepFraming(t *testing.T) {
	const senders, perSender = 8, 500
	recv, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	// Frame (g, i) is 8+g*perSender+i bytes long: a header naming g and i,
	// then a filler byte derived from both.
	frame := func(g, i int) []byte {
		b := make([]byte, 8+g*perSender+i)
		binary.BigEndian.PutUint32(b[0:], uint32(g))
		binary.BigEndian.PutUint32(b[4:], uint32(i))
		for k := 8; k < len(b); k++ {
			b[k] = byte(g*31 + i)
		}
		return b
	}
	var mu sync.Mutex
	seen := make(map[[2]int]bool)
	corrupt := 0
	done := make(chan struct{})
	recv.SetReceiver(func(_ string, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		ok := len(data) >= 8
		var g, i int
		if ok {
			g, i = int(binary.BigEndian.Uint32(data[0:])), int(binary.BigEndian.Uint32(data[4:]))
			ok = g < senders && i < perSender && string(data) == string(frame(g, i))
		}
		if !ok {
			corrupt++
			return
		}
		seen[[2]int{g, i}] = true
		if len(seen) == senders*perSender {
			close(done)
		}
	})

	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := send.Send(recv.Addr(), frame(g, i)); err != nil {
					t.Errorf("send %d/%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != senders*perSender || corrupt != 0 {
		t.Fatalf("received %d of %d frames intact, %d corrupt", len(seen), senders*perSender, corrupt)
	}
}

// TestFrameReaderReassembles feeds a frameReader a byte stream cut at
// awkward places — inside a length prefix, inside a body, and two frames in
// one write — and a frame larger than its buffer: every frame comes out
// whole, in order, in a buffer of its own, and a length over the limit ends
// the connection.
func TestFrameReaderReassembles(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	frame := func(body []byte) []byte {
		b := make([]byte, 4, 4+len(body))
		binary.BigEndian.PutUint32(b, uint32(len(body)))
		return append(b, body...)
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB, four buffers' worth
	bodies := [][]byte{[]byte("one"), {}, []byte("three"), big, []byte("five")}
	var stream []byte
	for _, b := range bodies {
		stream = append(stream, frame(b)...)
	}
	over := make([]byte, 4)
	binary.BigEndian.PutUint32(over, maxFrame+1)
	stream = append(stream, over...)

	go func() {
		// "one" split inside its prefix and inside its body; the empty
		// frame and "three" together; the rest in one piece.
		for _, cut := range [][2]int{{0, 2}, {2, 6}, {6, 7}, {7, 20}, {20, len(stream)}} {
			if _, err := client.Write(stream[cut[0]:cut[1]]); err != nil {
				return
			}
		}
	}()

	conn := &deadlineRecorder{Conn: server}
	r := frameReader{conn: conn, br: bufio.NewReader(conn)}
	var got [][]byte
	var armed []bool // per frame: was frameTimeout set while reading it
	for range bodies {
		conn.set = false
		data, err := r.next()
		if err != nil {
			t.Fatalf("frame %d: %v", len(got), err)
		}
		got = append(got, data)
		armed = append(armed, conn.set)
	}
	// "one" and the 16 KiB frame arrive in pieces and are read against the
	// frame timeout; "three" and "five" are already buffered and are not.
	// (The empty frame has no body to wait for.) The wait for the next
	// prefix is never bounded: a deadline left by a split frame is cleared.
	if want := []bool{true, false, false, true, false}; !reflect.DeepEqual(armed, want) {
		t.Fatalf("frame timeout armed per frame = %v, want %v", armed, want)
	}
	if conn.cleared != 2 {
		t.Fatalf("deadline cleared %d times, want once after each split frame", conn.cleared)
	}
	for i, want := range bodies {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("frame %d = %d bytes %q..., want %d bytes", i, len(got[i]), got[i][:min(len(got[i]), 8)], len(want))
		}
	}
	if _, err := r.next(); err == nil {
		t.Fatal("a length over maxFrame was accepted")
	}
}

// deadlineRecorder notes the read deadlines a frameReader sets.
type deadlineRecorder struct {
	net.Conn
	set     bool // a non-zero deadline since the flag was last lowered
	cleared int  // zero deadlines
}

func (d *deadlineRecorder) SetReadDeadline(t time.Time) error {
	if t.IsZero() {
		d.cleared++
	} else {
		d.set = true
	}
	return d.Conn.SetReadDeadline(t)
}

// TestTCPTransportLargeFrame sends a frame bigger than both the reader's
// buffer and the socket buffers, so the vectored write completes in pieces
// and the body is read past the buffer.
func TestTCPTransportLargeFrame(t *testing.T) {
	recv, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	got := make(chan []byte, 2)
	recv.SetReceiver(func(_ string, data []byte) { got <- data })

	big := make([]byte, 8<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	for _, want := range [][]byte{big, []byte("after")} {
		if err := send.Send(recv.Addr(), want); err != nil {
			t.Fatal(err)
		}
		select {
		case data := <-got:
			if !bytes.Equal(data, want) {
				t.Fatalf("received %d bytes, want the %d sent", len(data), len(want))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame of %d bytes never arrived", len(want))
		}
	}
}
