package httpd

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
)

// echoRequest is a request the Echo service answers, built the way a
// consumer's stub builds it.
func echoRequest(t *testing.T, h *Host, msg string) []byte {
	t.Helper()
	req, _, err := stubFor(t, h, "Echo", nil).BuildRequest("echoString", engine.P("msg", msg))
	if err != nil {
		t.Fatal(err)
	}
	return req.Body
}

// httpURL is an endpoint as net/http dials it: an httpg:// endpoint is
// plain HTTP on the wire.
func httpURL(endpoint string) string {
	return "http://" + strings.SplitN(endpoint, "://", 2)[1]
}

// rawPost writes a POST by hand — declaring declared bytes of body, sending
// sent, then closing its half of the connection — and returns the status
// the host answered with.
func rawPost(t *testing.T, endpoint string, declared int64, sent []byte) int {
	t.Helper()
	u, err := url.Parse(httpURL(endpoint))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: text/xml\r\nContent-Length: %d\r\n\r\n", u.Path, declared)
	conn.Write(sent)
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading the answer: %v", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// post sends body with a Content-Length, or chunked when sized is false.
func post(t *testing.T, url string, body []byte, sized bool) (status int, answer []byte) {
	t.Helper()
	var r io.Reader = bytes.NewReader(body)
	if !sized {
		r = struct{ io.Reader }{r} // hide the length: net/http sends it chunked
	}
	req, err := http.NewRequest(http.MethodPost, httpURL(url), r)
	if err != nil {
		t.Fatal(err)
	}
	if sized != (req.ContentLength == int64(len(body))) {
		t.Fatalf("sized=%v but ContentLength=%d", sized, req.ContentLength)
	}
	req.Header.Set("Content-Type", soap.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	answer, _ = io.ReadAll(resp.Body)
	return resp.StatusCode, answer
}

// TestRequestBodyForms: service requests and hosted callbacks read their
// bodies through one helper — whole when sized or chunked, 400 when the
// peer stops short of the length it declared, 413 (before any byte of it
// is read) when it declares more than the host accepts.
func TestRequestBodyForms(t *testing.T) {
	h := newHost(t, Options{})
	endpoint, err := h.Deploy(echoDef())
	if err != nil {
		t.Fatal(err)
	}
	var delivered [][]byte
	var mu sync.Mutex
	callback, cancel, err := h.HostCallback(func(body []byte) {
		mu.Lock()
		delivered = append(delivered, body)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	request := echoRequest(t, h, "sized or not")

	for _, sized := range []bool{true, false} {
		status, answer := post(t, endpoint, request, sized)
		if status != http.StatusOK || !bytes.Contains(answer, []byte("sized or not")) {
			t.Errorf("service, sized=%v: status %d, answer %s", sized, status, answer)
		}
		status, answer = post(t, callback, request, sized)
		if status != http.StatusAccepted || len(answer) != 0 {
			t.Errorf("callback, sized=%v: status %d, answer %q", sized, status, answer)
		}
	}
	if len(delivered) != 2 || !bytes.Equal(delivered[0], request) || !bytes.Equal(delivered[1], request) {
		t.Errorf("callback was handed %d bodies, want the request twice", len(delivered))
	}

	requests := mHostRequests.Value()
	for name, url := range map[string]string{"service": endpoint, "callback": callback} {
		if got := rawPost(t, url, int64(len(request)), request[:len(request)/2]); got != http.StatusBadRequest {
			t.Errorf("%s, short body: status %d, want 400", name, got)
		}
		if got := rawPost(t, url, maxRequestBytes+1, nil); got != http.StatusRequestEntityTooLarge {
			t.Errorf("%s, oversize body: status %d, want 413", name, got)
		}
	}
	if len(delivered) != 2 {
		t.Errorf("a refused callback body was delivered")
	}
	if got := mHostRequests.Value() - requests; got != 0 {
		t.Errorf("%d refused bodies reached dispatch", got)
	}
}

// TestReadBodyLimit exercises the limit on a body of unknown length, which
// only shows once limit+1 bytes have arrived, with a limit small enough to
// send: exactly the limit is read whole, one byte more is refused.
func TestReadBodyLimit(t *testing.T) {
	const limit = 1 << 10
	for _, tc := range []struct {
		n      int
		sized  bool
		status int
	}{
		{limit, true, 0}, {limit, false, 0}, {0, true, 0}, {0, false, 0},
		{limit + 1, true, http.StatusRequestEntityTooLarge},
		{limit + 1, false, http.StatusRequestEntityTooLarge},
	} {
		r := httptest.NewRequest(http.MethodPost, "/services/Echo", strings.NewReader(strings.Repeat("x", tc.n)))
		if !tc.sized {
			r.ContentLength = -1
		}
		w := httptest.NewRecorder()
		body, ok := readBody(w, r, limit)
		if ok != (tc.status == 0) || (ok && len(body) != tc.n) || (!ok && w.Code != tc.status) {
			t.Errorf("%d bytes, sized=%v: ok=%v, %d bytes read, status %d", tc.n, tc.sized, ok, len(body), w.Code)
		}
	}
}

// TestHTTPGProofCoversWholeBodyBeforeDispatch: on the httpg profile neither
// the application's interceptor nor a callback sees a body whose proof does
// not hold, and both see one whose proof does.
func TestHTTPGProofCoversWholeBodyBeforeDispatch(t *testing.T) {
	secret := []byte("grid-secret")
	h := newHost(t, Options{Profile: "httpg", Secret: secret})
	endpoint, err := h.Deploy(echoDef())
	if err != nil {
		t.Fatal(err)
	}
	var seen atomic.Int64
	h.SetInterceptor(func(string, *transport.Request) (*transport.Response, bool, error) {
		seen.Add(1)
		return nil, false, nil
	})
	callback, cancel, err := h.HostCallback(func([]byte) { seen.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	body := []byte(`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Body/></soapenv:Envelope>`)
	send := func(url string, proofOver []byte) int {
		req, err := http.NewRequest(http.MethodPost, httpURL(url), bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(transport.HTTPGAuthHeader, transport.SignHTTPG(secret, proofOver))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, url := range []string{endpoint, callback} {
		if got := send(url, body[:len(body)-1]); got != http.StatusForbidden {
			t.Errorf("%s: proof over a truncated body answered %d, want 403", url, got)
		}
	}
	if seen.Load() != 0 {
		t.Fatalf("%d unauthenticated bodies were handed on", seen.Load())
	}
	if got := send(callback, body); got != http.StatusAccepted {
		t.Errorf("callback with a valid proof answered %d", got)
	}
	if got := send(endpoint, body); got == http.StatusForbidden {
		t.Errorf("service with a valid proof answered 403")
	}
	if seen.Load() != 2 {
		t.Errorf("%d authenticated bodies were handed on, want 2", seen.Load())
	}
}

// TestRoutingChangesRaceRequests: requests find their handler in a
// snapshot they load without the host lock. Every change — deploy,
// undeploy, interceptor on and off, callback hosted and cancelled — must
// be seen by the very next request, while four loops of requests run
// against the same host. Run under -race.
func TestRoutingChangesRaceRequests(t *testing.T) {
	h := newHost(t, Options{})
	stable := echoDef()
	stable.Name = "Stable"
	stableURL, err := h.Deploy(stable)
	if err != nil {
		t.Fatal(err)
	}
	flapURL := strings.TrimSuffix(stableURL, "Stable") + "Echo"
	callbackBase := strings.TrimSuffix(stableURL, BasePath+"Stable") + CallbackPath

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	defer client.CloseIdleConnections()
	status := func(url string) int {
		resp, err := client.Post(httpURL(url), soap.ContentType, strings.NewReader("<x/>"))
		if err != nil {
			t.Error(err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			urls := []string{stableURL, flapURL, callbackBase + "1", callbackBase + "2"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := urls[(g+i)%len(urls)]
				// <x/> is no envelope: the engine's fault, or the answer of
				// the interceptor while one is installed.
				if got := status(url); url == stableURL && got != http.StatusInternalServerError && got != http.StatusOK {
					t.Errorf("always-deployed service answered %d", got)
					return
				}
			}
		}(g)
	}

	intercepted := &transport.Response{Body: []byte("<intercepted/>"), ContentType: "text/plain"}
	for i := 0; i < 25; i++ {
		if got := status(flapURL); got != http.StatusNotFound {
			t.Fatalf("round %d: undeployed service answered %d", i, got)
		}
		if _, err := h.Deploy(echoDef()); err != nil {
			t.Fatal(err)
		}
		if got := status(flapURL); got != http.StatusInternalServerError {
			t.Fatalf("round %d: deployed service answered %d, want the engine's fault", i, got)
		}
		h.SetInterceptor(func(string, *transport.Request) (*transport.Response, bool, error) {
			return intercepted, true, nil
		})
		if got := status(flapURL); got != http.StatusOK {
			t.Fatalf("round %d: with an interceptor installed the service answered %d", i, got)
		}
		h.SetInterceptor(nil)
		if got := status(flapURL); got != http.StatusInternalServerError {
			t.Fatalf("round %d: interceptor removed, service answered %d", i, got)
		}
		var got atomic.Int64
		url, cancel, err := h.HostCallback(func([]byte) { got.Add(1) })
		if err != nil {
			t.Fatal(err)
		}
		if s := status(url); s != http.StatusAccepted || got.Load() == 0 { // the loops may deliver to it too
			t.Fatalf("round %d: hosted callback answered %d, delivered %d", i, s, got.Load())
		}
		cancel()
		if s := status(url); s != http.StatusNotFound {
			t.Fatalf("round %d: cancelled callback answered %d", i, s)
		}
		if !h.Undeploy("Echo") {
			t.Fatalf("round %d: undeploy found nothing", i)
		}
	}
}
