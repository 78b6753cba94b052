package httpd

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/resilience"
	"wspeer/internal/soap"
)

// gatedDef deploys an operation that parks inside the handler until
// release is closed, reporting the high-water mark of concurrent entries.
func gatedDef(entered chan<- struct{}, release <-chan struct{}, inFlight, peak *atomic.Int64) engine.ServiceDef {
	return engine.ServiceDef{
		Name: "Gated",
		Operations: []engine.OperationDef{{
			Name: "wait",
			Func: func(s string) string {
				n := inFlight.Add(1)
				defer inFlight.Add(-1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				entered <- struct{}{}
				<-release
				return s
			},
			ParamNames: []string{"msg"},
		}},
	}
}

// TestOverloadShedding saturates an admission-controlled host and checks
// the contract end to end: concurrency never exceeds the limit, and shed
// requests receive HTTP 503 with Retry-After and a SOAP Server fault.
func TestOverloadShedding(t *testing.T) {
	const limit = 3
	adm := resilience.NewAdmission(resilience.AdmissionOptions{
		MaxConcurrent: limit,
		MaxQueue:      0,
		RetryAfter:    2 * time.Second,
	})
	h := newHost(t, Options{Admission: adm})

	entered := make(chan struct{}, limit)
	release := make(chan struct{})
	var inFlight, peak atomic.Int64
	endpoint, err := h.Deploy(gatedDef(entered, release, &inFlight, &peak))
	if err != nil {
		t.Fatal(err)
	}

	// Fill every slot with real invocations...
	stub := stubFor(t, h, "Gated", nil)
	var holders sync.WaitGroup
	holderErrs := make(chan error, limit)
	for i := 0; i < limit; i++ {
		holders.Add(1)
		go func() {
			defer holders.Done()
			_, err := stub.Invoke(context.Background(), "wait", engine.P("msg", "held"))
			holderErrs <- err
		}()
	}
	for i := 0; i < limit; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("holders never reached the handler")
		}
	}

	// ...then burst 4x the limit. Every one of these must be shed at the
	// door: 503, Retry-After, SOAP Server fault in the body.
	const burst = 4 * limit
	var sheds sync.WaitGroup
	type shedResult struct {
		status     int
		retryAfter string
		body       string
	}
	results := make(chan shedResult, burst)
	for i := 0; i < burst; i++ {
		sheds.Add(1)
		go func() {
			defer sheds.Done()
			resp, err := http.Post(endpoint, soap.ContentType, strings.NewReader("<x/>"))
			if err != nil {
				results <- shedResult{status: -1, body: err.Error()}
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			results <- shedResult{resp.StatusCode, resp.Header.Get("Retry-After"), string(body)}
		}()
	}
	sheds.Wait()
	close(results)
	for r := range results {
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("shed request: status %d, body %q", r.status, r.body)
		}
		if r.retryAfter != "2" {
			t.Fatalf("Retry-After = %q, want \"2\"", r.retryAfter)
		}
		if !strings.Contains(r.body, "Server") || !strings.Contains(r.body, "retryAfterSeconds") {
			t.Fatalf("shed body lacks the Server fault: %s", r.body)
		}
	}

	// The held invocations finish normally once released.
	close(release)
	holders.Wait()
	close(holderErrs)
	for err := range holderErrs {
		if err != nil {
			t.Fatalf("held invocation failed: %v", err)
		}
	}

	if got := peak.Load(); got > limit {
		t.Fatalf("observed %d concurrent dispatches, limit %d", got, limit)
	}
	st := adm.Stats()
	if st.Admitted != limit || st.Shed != burst {
		t.Fatalf("stats = %+v, want %d admitted / %d shed", st, limit, burst)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("counters leaked: %+v", st)
	}
}

// TestOverloadQueueTimeout parks one request in the wait queue and checks
// it is shed with the overload contract when its patience runs out.
func TestOverloadQueueTimeout(t *testing.T) {
	adm := resilience.NewAdmission(resilience.AdmissionOptions{
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueTimeout:  50 * time.Millisecond,
		RetryAfter:    time.Second,
	})
	h := newHost(t, Options{Admission: adm})

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var inFlight, peak atomic.Int64
	endpoint, err := h.Deploy(gatedDef(entered, release, &inFlight, &peak))
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)

	stub := stubFor(t, h, "Gated", nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		stub.Invoke(context.Background(), "wait", engine.P("msg", "held"))
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("holder never reached the handler")
	}

	start := time.Now()
	resp, err := http.Post(endpoint, soap.ContentType, strings.NewReader("<x/>"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("queued request waited %v past its queue timeout", waited)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}
}

// goldenOverloadFault is the 503 body a shed request gets from a host whose
// admission advertises 2 s: captured from the tree-rendering fault writer.
const goldenOverloadFault = `<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/" xmlns:ns1="http://wspeer.dev/resilience"><soapenv:Body><soapenv:Fault><faultcode>soapenv:Server</faultcode><faultstring>resilience: server overloaded (queue full), retry after 2s</faultstring><detail><ns1:retryAfterSeconds>2</ns1:retryAfterSeconds></detail></soapenv:Fault></soapenv:Body></soapenv:Envelope>`

// TestGoldenOverloadFault: the 503 body of a shed request does not move
// by a byte.
func TestGoldenOverloadFault(t *testing.T) {
	adm := resilience.NewAdmission(resilience.AdmissionOptions{MaxConcurrent: 1, RetryAfter: 2 * time.Second})
	h := newHost(t, Options{Admission: adm})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var inFlight, peak atomic.Int64
	endpoint, err := h.Deploy(gatedDef(entered, release, &inFlight, &peak))
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan error, 1)
	go func() {
		_, err := stubFor(t, h, "Gated", nil).Invoke(context.Background(), "wait", engine.P("msg", "held"))
		held <- err
	}()
	<-entered
	resp, err := http.Post(endpoint, soap.ContentType, strings.NewReader("<x/>"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("held invocation: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || string(body) != goldenOverloadFault {
		t.Fatalf("shed request: status %d, body drifted from the golden bytes:\n got: %s\nwant: %s", resp.StatusCode, body, goldenOverloadFault)
	}
}
