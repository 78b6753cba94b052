package transport

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"wspeer/internal/soap"
	"wspeer/internal/telemetry"
)

// Spine counters for the HTTP transport family (http and httpg share the
// same POST path).
var (
	mHTTPPosts  = telemetry.Default().Meter.Counter("transport.http.posts")
	mHTTPErrors = telemetry.Default().Meter.Counter("transport.http.errors")
)

// maxResponseBytes bounds response bodies read from the network; a larger
// one fails the call, it is never cut short.
const maxResponseBytes = 64 << 20

// SOAPActionHeader is the HTTP request header carrying the SOAPAction.
const SOAPActionHeader = "SOAPAction"

// SOAPActionKey is SOAPActionHeader as net/http stores and sends it.
// "SOAPAction" is not in canonical form, so Header.Get and Header.Set
// allocate the canonical key on every call; both sides of the wire index
// the header map with it directly.
const SOAPActionKey = "Soapaction"

// soapContentType is the Content-Type value of nearly every request,
// shared between them: net/http only reads a header's value slice.
var soapContentType = []string{soap.ContentType}

// sharedHTTPTransport is the tuned connection pool every HTTP-family
// transport shares by default. SOAP invocation is many small POSTs to few
// hosts, so connection reuse dominates: keep-alives on, a deep per-host
// idle pool (the default of 2 collapses under concurrent invocations and
// forces fresh TCP handshakes), and a generous idle timeout so
// steady-state traffic never reconnects.
var sharedHTTPTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   10 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:          256,
	MaxIdleConnsPerHost:   32,
	IdleConnTimeout:       90 * time.Second,
	TLSHandshakeTimeout:   10 * time.Second,
	ExpectContinueTimeout: 1 * time.Second,
}

// SharedHTTPTransport exposes the tuned shared connection pool so hosts,
// bindings and tools issuing their own HTTP requests reuse the same
// keep-alive connections as the invocation path.
func SharedHTTPTransport() *http.Transport { return sharedHTTPTransport }

// respBufPool recycles the buffers chunked responses are accumulated in
// (reusing their grown capacity across calls) before being copied out at
// exact size, so the per-call garbage is one right-sized slice instead of
// every intermediate growth step. A response with a Content-Length needs
// no buffer: it is read straight into a slice of that size.
var respBufPool = sync.Pool{
	New: func() interface{} { return new(bytes.Buffer) },
}

// maxPooledRespBuf bounds the buffer capacity the pool retains.
const maxPooledRespBuf = 1 << 20

// readBody reads a response body whole: length is its Content-Length (-1
// when the reply is chunked) and limit the largest body accepted. A body
// over the limit is an error, found from the declared length before a
// byte is read or once limit+1 bytes of a chunked one have arrived.
func readBody(r io.Reader, length, limit int64) ([]byte, error) {
	if length > limit {
		return nil, fmt.Errorf("response body of %d bytes exceeds the %d-byte limit", length, limit)
	}
	if length >= 0 {
		body := make([]byte, length)
		_, err := io.ReadFull(r, body)
		return body, err
	}
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	// Return the buffer on every exit — success, read error, or panic in
	// ReadFrom — so an error path can never leak it from the pool.
	defer func() {
		if buf.Cap() <= maxPooledRespBuf {
			respBufPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(io.LimitReader(r, limit+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > limit {
		return nil, fmt.Errorf("response body exceeds the %d-byte limit", limit)
	}
	body := make([]byte, buf.Len())
	copy(body, buf.Bytes())
	return body, nil
}

// HTTPTransport carries SOAP 1.1 over HTTP POST.
type HTTPTransport struct {
	// Client is the underlying HTTP client. Defaults to a client with a
	// 30-second timeout over the shared tuned connection pool.
	Client *http.Client
}

// NewHTTPTransport returns an HTTP transport with sane defaults:
// a 30-second overall timeout and the shared keep-alive connection pool.
func NewHTTPTransport() *HTTPTransport {
	return &HTTPTransport{Client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: sharedHTTPTransport,
	}}
}

// Scheme implements Transport.
func (t *HTTPTransport) Scheme() string { return "http" }

// Call implements Transport.
func (t *HTTPTransport) Call(ctx context.Context, req *Request) (*Response, error) {
	return t.post(ctx, req.Endpoint, req, nil)
}

// Post implements Poster: the message is delivered and the HTTP status is
// the only acknowledgement — any response body (a host answering a one-way
// message with 202 Accepted carries none anyway) is discarded unread by
// the SOAP layer.
func (t *HTTPTransport) Post(ctx context.Context, req *Request) error {
	_, err := t.post(ctx, req.Endpoint, req, nil)
	return err
}

func (t *HTTPTransport) post(ctx context.Context, url string, req *Request, decorate func(*http.Request)) (*Response, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(req.Body))
	if err != nil {
		return nil, fmt.Errorf("transport/http: %w", err)
	}
	if ct := req.ContentType; ct == "" || ct == soap.ContentType {
		hr.Header["Content-Type"] = soapContentType
	} else {
		hr.Header.Set("Content-Type", ct)
	}
	// SOAP 1.1 requires the SOAPAction header, quoted.
	hr.Header[SOAPActionKey] = []string{`"` + req.Action + `"`}
	// Propagate the caller's trace across the wire so the server-side
	// dispatch span links to the client invocation span.
	if sc, ok := telemetry.SpanContextFromContext(ctx); ok {
		hr.Header.Set(telemetry.TraceHeader, telemetry.FormatTraceHeader(sc))
	}
	// Propagate the caller's deadline so the server can drop work the
	// caller has already abandoned (see deadline.go).
	if dl, ok := ctx.Deadline(); ok {
		hr.Header.Set(DeadlineHeader, FormatDeadline(dl))
	}
	if decorate != nil {
		decorate(hr)
	}
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	mHTTPPosts.Inc()
	resp, err := client.Do(hr)
	if err != nil {
		mHTTPErrors.Inc()
		return nil, fmt.Errorf("transport/http: POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := readBody(resp.Body, resp.ContentLength, maxResponseBytes)
	if err != nil {
		mHTTPErrors.Inc()
		return nil, fmt.Errorf("transport/http: reading response: %w", err)
	}
	switch {
	case resp.StatusCode == http.StatusOK,
		resp.StatusCode == http.StatusAccepted,
		resp.StatusCode == http.StatusNoContent:
		return &Response{ContentType: resp.Header.Get("Content-Type"), Body: body}, nil
	case resp.StatusCode == http.StatusInternalServerError && looksLikeXML(body):
		// Per the SOAP/HTTP binding a fault travels as a 500 with an
		// envelope body. Hand it up for envelope-level handling.
		return &Response{ContentType: resp.Header.Get("Content-Type"), Body: body, Faulted: true}, nil
	default:
		mHTTPErrors.Inc()
		return nil, &StatusError{
			URL:        url,
			Code:       resp.StatusCode,
			Status:     resp.Status,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
}

// StatusError is an HTTP exchange that completed with a status the SOAP
// binding has no mapping for — most importantly 503 Service Unavailable
// from an overloaded host. When the response carried a Retry-After header
// its value is preserved, and RetryAfterHint surfaces it to backoff logic
// (pipeline.Retry floors its next delay on it).
type StatusError struct {
	// URL is the POSTed endpoint.
	URL string
	// Code is the HTTP status code.
	Code int
	// Status is the full status line ("503 Service Unavailable").
	Status string
	// RetryAfter is the server-advertised backoff (0 when absent).
	RetryAfter time.Duration
}

// Error implements error, keeping the historical "unexpected status"
// message shape.
func (e *StatusError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("transport/http: POST %s: unexpected status %s (retry after %s)", e.URL, e.Status, e.RetryAfter)
	}
	return fmt.Sprintf("transport/http: POST %s: unexpected status %s", e.URL, e.Status)
}

// RetryAfterHint returns the server-advertised backoff, satisfying the
// pipeline's RetryAfterHinter without a package dependency.
func (e *StatusError) RetryAfterHint() time.Duration { return e.RetryAfter }

// parseRetryAfter reads a Retry-After header's delay-seconds form (the
// form WSPeer hosts emit). The HTTP-date form is ignored.
func parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

func looksLikeXML(b []byte) bool {
	return bytes.HasPrefix(bytes.TrimSpace(b), []byte("<"))
}

// ---------------------------------------------------------------------------
// HTTPG: the authenticated HTTP profile.
//
// The paper supports HTTPG, "the transport used by Globus for authenticated
// communication". The Globus GSI stack is proprietary to that toolkit; what
// matters architecturally is that a second, credentialed transport coexists
// with plain HTTP behind the same Invocation. HTTPG here authenticates each
// request with an HMAC-SHA256 over the body using a shared secret, which
// exercises the same code paths (scheme-based routing, decorated requests,
// server-side verification) as a full GSI implementation would.

// HTTPGAuthHeader carries the request's authentication proof.
const HTTPGAuthHeader = "X-WSPeer-HTTPG-Auth"

// HTTPGTransport is an authenticated HTTP transport for httpg:// endpoints.
type HTTPGTransport struct {
	HTTPTransport
	Secret []byte
}

// NewHTTPGTransport returns an HTTPG transport using the shared secret.
// It reuses the same tuned keep-alive connection pool as plain HTTP.
func NewHTTPGTransport(secret []byte) *HTTPGTransport {
	return &HTTPGTransport{
		HTTPTransport: *NewHTTPTransport(),
		Secret:        secret,
	}
}

// Scheme implements Transport.
func (t *HTTPGTransport) Scheme() string { return "httpg" }

// Call implements Transport. The httpg:// endpoint is rewritten to http://
// on the wire with the authentication header attached.
func (t *HTTPGTransport) Call(ctx context.Context, req *Request) (*Response, error) {
	url := "http://" + strings.TrimPrefix(req.Endpoint, "httpg://")
	mac := SignHTTPG(t.Secret, req.Body)
	return t.post(ctx, url, req, func(hr *http.Request) {
		hr.Header.Set(HTTPGAuthHeader, mac)
	})
}

// Post implements Poster with the same URL rewrite and authentication
// proof as Call.
func (t *HTTPGTransport) Post(ctx context.Context, req *Request) error {
	_, err := t.Call(ctx, req)
	return err
}

// SignHTTPG computes the authentication proof for a request body.
func SignHTTPG(secret, body []byte) string {
	m := hmac.New(sha256.New, secret)
	m.Write(body)
	return hex.EncodeToString(m.Sum(nil))
}

// VerifyHTTPG checks an authentication proof. It is used by the server-side
// HTTP host for services deployed with the httpg profile.
func VerifyHTTPG(secret, body []byte, proof string) bool {
	want := SignHTTPG(secret, body)
	return hmac.Equal([]byte(want), []byte(proof))
}
