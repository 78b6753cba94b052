package xmlutil

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestMarshalPooledBufferNotAliased pins the pooling contract: Marshal
// copies out of the pooled writer, so bytes returned earlier must never
// be overwritten by later marshals reusing the same buffer.
func TestMarshalPooledBufferNotAliased(t *testing.T) {
	mk := func(i int) *Element {
		el := NewElement(N("urn:t", fmt.Sprintf("el%d", i)))
		el.NewChild(N("urn:t", "v")).SetText(fmt.Sprintf("value-%d", i))
		return el
	}
	const n = 64
	outs := make([][]byte, n)
	wants := make([]string, n)
	for i := 0; i < n; i++ {
		outs[i] = Marshal(mk(i))
		wants[i] = string(outs[i]) // snapshot before further pool reuse
	}
	for i := 0; i < n; i++ {
		if string(outs[i]) != wants[i] {
			t.Fatalf("marshal %d was clobbered by pooled-buffer reuse:\n%s", i, outs[i])
		}
	}
}

// TestMarshalConcurrent exercises the writer pool under the race
// detector: concurrent marshals of distinct trees must not interleave.
func TestMarshalConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			el := NewElement(N("urn:t", "root"))
			el.NewChild(N("urn:t", "g")).SetText(fmt.Sprintf("goroutine-%d", g))
			want := string(Marshal(el))
			for i := 0; i < 200; i++ {
				if got := string(Marshal(el)); got != want {
					t.Errorf("goroutine %d: output changed:\n%s", g, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMarshalToMatchesMarshal pins that the streaming form produces the
// exact bytes of the allocating form.
func TestMarshalToMatchesMarshal(t *testing.T) {
	el := NewElement(N("urn:t", "root"))
	el.DeclarePrefix("p", "urn:p")
	el.NewChild(N("urn:p", "a")).SetText("x & y")
	el.NewChild(N("urn:t", "b")).SetAttr(N("", "q"), `"quoted"`)
	want := Marshal(el)
	var buf bytes.Buffer
	if err := MarshalTo(&buf, el); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("MarshalTo differs:\n%s\nvs\n%s", buf.Bytes(), want)
	}
}

// TestParseConcurrent exercises the parser pool under the race detector.
func TestParseConcurrent(t *testing.T) {
	doc := []byte(`<a xmlns="urn:d"><b attr="v">text &amp; more</b><c/></a>`)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				el, err := ParseBytes(doc)
				if err != nil {
					t.Error(err)
					return
				}
				if el.Find(N("urn:d", "b")).Text() != "text & more" {
					t.Error("bad parse")
					return
				}
			}
		}()
	}
	wg.Wait()
}
