package engine

import (
	"context"
	"fmt"
	"reflect"

	"wspeer/internal/soap"
	"wspeer/internal/transport"
	"wspeer/internal/wsdl"
	"wspeer/internal/xmlutil"
	"wspeer/internal/xsd"
)

// Stub is a dynamic client-side proxy for a service described by WSDL.
// Where Axis generates Java source for stubs and compiles it, WSPeer
// "generat[es] stubs directly to bytes, bypassing source generation and
// compilation" (paper §IV-A): a Stub serializes each call straight to a
// SOAP envelope using the parsed definitions, with no intermediate code
// generation step — and with no intermediate tree either: the envelope it
// prepares holds the parameters as Go values, which their compiled xsd
// plans write into the message when it is marshalled, and a Result decodes
// from the response's bytes.
type Stub struct {
	defs *wsdl.Definitions
	reg  *transport.Registry

	// EndpointOverride, when non-empty, replaces the WSDL port address.
	// Locators use it to point a stub at a freshly resolved endpoint.
	EndpointOverride string
}

// NewStub builds a stub over parsed definitions and a transport registry.
func NewStub(defs *wsdl.Definitions, reg *transport.Registry) *Stub {
	return &Stub{defs: defs, reg: reg}
}

// Param is one named input value for a dynamic invocation.
type Param struct {
	Name  string
	Value interface{}
}

// P is shorthand for constructing a Param.
func P(name string, value interface{}) Param { return Param{Name: name, Value: value} }

// PrepareEnvelope builds the request envelope for an operation. Bindings
// that add their own headers (the P2PS binding's WS-Addressing blocks) call
// this and then transmit the envelope themselves. Everything derivable
// from the WSDL alone comes from Definitions.Detail, which memoizes it per
// operation: a stub is as cheap to build per call as to keep.
func (s *Stub) PrepareEnvelope(op string, params ...Param) (*soap.Envelope, *wsdl.OperationDetail, error) {
	det, err := s.defs.Detail(op)
	if err != nil {
		return nil, nil, err
	}
	env, wrapper := soap.NewBodyEnvelope(soap.SOAP11, det.Input)
	for _, p := range params {
		if p.Name == "" {
			return nil, nil, fmt.Errorf("engine: parameter of %s has no name", op)
		}
		if p.Value == nil {
			continue // omitted optional
		}
		if err := wrapper.Add(p.Name, reflect.ValueOf(p.Value)); err != nil {
			return nil, nil, fmt.Errorf("engine: encoding parameter %q: %w", p.Name, err)
		}
	}
	return env, det, nil
}

// BuildRequest serializes an operation call to a transport request.
func (s *Stub) BuildRequest(op string, params ...Param) (*transport.Request, *wsdl.OperationDetail, error) {
	env, det, err := s.PrepareEnvelope(op, params...)
	if err != nil {
		return nil, nil, err
	}
	endpoint := det.Address
	if s.EndpointOverride != "" {
		endpoint = s.EndpointOverride
	}
	return &transport.Request{
		Endpoint:    endpoint,
		Action:      det.SOAPAction,
		ContentType: soap.ContentType,
		Body:        env.Marshal(),
	}, det, nil
}

// Result is the decoded-on-demand response of an invocation: the response
// envelope, whose body is still the bytes it arrived in. Each Decode scans
// them again for the part it is asked for.
type Result struct {
	env *soap.Envelope
	ns  string
}

// Wrapper returns the response wrapper element (e.g. <EchoResponse>) as a
// tree, built at the first call: for a caller that wants to print or walk
// the response rather than decode it.
func (r *Result) Wrapper() *xmlutil.Element { return r.env.FirstBodyElement() }

// Decode extracts the named result part into out, which must be a non-nil
// pointer of the expected Go type.
func (r *Result) Decode(name string, out interface{}) error {
	if r == nil || r.env == nil {
		return fmt.Errorf("engine: no result to decode")
	}
	pv := reflect.ValueOf(out)
	if pv.Kind() != reflect.Ptr || pv.IsNil() {
		return fmt.Errorf("engine: Decode needs a non-nil pointer, got %T", out)
	}
	t := pv.Type().Elem()
	v := reflect.New(t).Elem() // *out is replaced whole, and only by a value that decoded
	if _, err := r.env.DecodeBody(r.ns, []xsd.Field{{Name: name, Type: t}}, []reflect.Value{v}); err != nil {
		return err
	}
	pv.Elem().Set(v)
	return nil
}

// String extracts a string-typed result part.
func (r *Result) String(name string) (string, error) {
	var out string
	err := r.Decode(name, &out)
	return out, err
}

// Invoke performs a synchronous invocation of the operation. A SOAP fault
// from the provider is returned as a *soap.Fault error. One-way operations
// return (nil, nil) on success.
func (s *Stub) Invoke(ctx context.Context, op string, params ...Param) (*Result, error) {
	req, det, err := s.BuildRequest(op, params...)
	if err != nil {
		return nil, err
	}
	resp, err := s.reg.Call(ctx, req)
	if err != nil {
		return nil, err
	}
	if det.Operation.OneWay() {
		return nil, nil
	}
	return DecodeResponse(resp.Body, det)
}

// DecodeResponse interprets a response body against an operation's detail.
func DecodeResponse(body []byte, det *wsdl.OperationDetail) (*Result, error) {
	env, err := soap.Parse(body)
	if err != nil {
		return nil, fmt.Errorf("engine: response: %w", err)
	}
	return DecodeResponseEnvelope(env, det)
}

// ResultFromEnvelope wraps a response envelope as a Result without an
// operation detail — the decoupled-reply path, where the callback message
// arrives on its own connection and is matched to the request by
// RelatesTo rather than by the invocation that produced it. A fault
// envelope is returned as the *soap.Fault error.
func ResultFromEnvelope(env *soap.Envelope) (*Result, error) {
	if env.IsFault() {
		return nil, env.Fault()
	}
	wrapper, ok := env.FirstBodyName()
	if !ok {
		return nil, fmt.Errorf("engine: reply has an empty body")
	}
	return &Result{env: env, ns: wrapper.Space}, nil
}

// DecodeResponseEnvelope interprets an already-parsed response envelope.
func DecodeResponseEnvelope(env *soap.Envelope, det *wsdl.OperationDetail) (*Result, error) {
	if env.IsFault() {
		return nil, env.Fault()
	}
	wrapper, ok := env.FirstBodyName()
	if !ok {
		return nil, fmt.Errorf("engine: response for %s has an empty body", det.Operation.Name)
	}
	if wrapper.Local != det.Output.Local {
		return nil, fmt.Errorf("engine: response wrapper is %s, want %s", wrapper, det.Output)
	}
	return &Result{env: env, ns: det.Output.Space}, nil
}
