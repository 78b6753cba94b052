package p2ps

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"
)

// TestTCPTransportConcurrentSendersKeepFraming has 8 goroutines send 500
// frames each, every frame of a distinct length, to one destination over
// the one cached connection. A frame's header and body are two writes, so
// without the per-connection write lock they interleave and the receiver
// loses framing: frames go missing or arrive with a foreign body.
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
