package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wspeer/internal/soap"
)

const faultEnvelope = `<soapenv:Envelope xmlns:soapenv="` + soap.Namespace + `"><soapenv:Body><soapenv:Fault><faultcode>soapenv:Server</faultcode><faultstring>bad</faultstring></soapenv:Fault></soapenv:Body></soapenv:Envelope>`

// TestHTTPResponseBodyForms: a response is read whole whether the host
// declares its length or sends it chunked, and the status mapping does not
// depend on which: 200 is the body, 500 with an envelope is a Faulted
// response, 503 is a StatusError carrying Retry-After.
func TestHTTPResponseBodyForms(t *testing.T) {
	large := strings.Repeat("<r>0123456789abcdef</r>", 8<<10) // larger than any one read
	for _, sized := range []bool{true, false} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			status, body := http.StatusOK, large
			switch r.URL.Path {
			case "/fault":
				status, body = http.StatusInternalServerError, faultEnvelope
			case "/busy":
				status, body = http.StatusServiceUnavailable, faultEnvelope
				w.Header().Set("Retry-After", "7")
			}
			if sized {
				w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			}
			w.WriteHeader(status)
			io.WriteString(w, body[:len(body)/2])
			if !sized {
				w.(http.Flusher).Flush() // a flush before the end makes the reply chunked
			}
			io.WriteString(w, body[len(body)/2:])
		}))
		tr := NewHTTPTransport()

		resp, err := tr.Call(context.Background(), &Request{Endpoint: srv.URL})
		if err != nil || string(resp.Body) != large || resp.Faulted {
			t.Errorf("sized=%v: %d-byte body, faulted %v, err %v", sized, len(resp.Body), resp != nil && resp.Faulted, err)
		}
		resp, err = tr.Call(context.Background(), &Request{Endpoint: srv.URL + "/fault"})
		if err != nil || !resp.Faulted || string(resp.Body) != faultEnvelope {
			t.Errorf("sized=%v: 500 with an envelope: %+v, %v", sized, resp, err)
		}
		_, err = tr.Call(context.Background(), &Request{Endpoint: srv.URL + "/busy"})
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable || se.RetryAfter != 7*time.Second {
			t.Errorf("sized=%v: 503: %v", sized, err)
		}
		srv.Close()
	}
}

// TestSOAPActionKeyIsCanonical: the header map is indexed with the key
// directly, which only works while it is the form net/http canonicalizes
// SOAPActionHeader to.
func TestSOAPActionKeyIsCanonical(t *testing.T) {
	if got := http.CanonicalHeaderKey(SOAPActionHeader); got != SOAPActionKey {
		t.Fatalf("SOAPActionKey = %q, net/http stores %q as %q", SOAPActionKey, SOAPActionHeader, got)
	}
}

// TestHTTPResponseOverLimit: a host that declares a body over the limit
// fails the call before any of it is read, with an error naming the limit.
func TestHTTPResponseOverLimit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(maxResponseBytes+1))
		w.WriteHeader(http.StatusOK) // and never sends it
	}))
	defer srv.Close()
	_, err := NewHTTPTransport().Call(context.Background(), &Request{Endpoint: srv.URL})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxResponseBytes)) {
		t.Fatalf("err = %v, want one naming the %d-byte limit", err, maxResponseBytes)
	}
}

// TestReadBodyLimit exercises the limit with one small enough to send: a
// body of exactly the limit is read whole, one byte more is an error (not
// a truncated body) sized or not, and a body shorter than declared is an
// error too.
func TestReadBodyLimit(t *testing.T) {
	const limit = 1 << 10
	for _, tc := range []struct {
		sent, declared int64
		ok             bool
	}{
		{limit, limit, true}, {limit, -1, true}, {0, 0, true}, {0, -1, true},
		{limit + 1, limit + 1, false}, {limit + 1, -1, false},
		{10, 20, false},
	} {
		body, err := readBody(strings.NewReader(strings.Repeat("x", int(tc.sent))), tc.declared, limit)
		if (err == nil) != tc.ok || (tc.ok && int64(len(body)) != tc.sent) {
			t.Errorf("%d bytes declared as %d: read %d, err %v", tc.sent, tc.declared, len(body), err)
		}
		if tc.sent > limit && (err == nil || !strings.Contains(err.Error(), fmt.Sprint(limit))) {
			t.Errorf("%d bytes declared as %d: err %v does not name the limit", tc.sent, tc.declared, err)
		}
	}
}
