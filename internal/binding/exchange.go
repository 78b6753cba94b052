package binding

import (
	"context"
	"fmt"

	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/exchange"
	"wspeer/internal/pipeline"
	"wspeer/internal/soap"
	"wspeer/internal/transport"
	"wspeer/internal/wsaddr"
	"wspeer/internal/wsdl"
)

// ExchangeHeaders reads the WS-Addressing headers the exchange layer
// stashed on a pipeline carrier, nil when the call is a plain synchronous
// invocation (the fast path: one map lookup, no allocation).
func ExchangeHeaders(c *pipeline.Call) *wsaddr.MessageHeaders {
	hdr, _ := c.GetMeta(exchange.MetaHeaders).(*wsaddr.MessageHeaders)
	return hdr
}

// Invoke performs one invocation over a transport registry, the one path
// of the registry-backed invokers (HTTP, in-memory): a dynamic stub over
// the located service's definitions builds the request, the
// scheme-selected transport carries it, and request and raw response are
// published on the pipeline carrier for client interceptors. Exchange
// headers on the carrier are stamped on the envelope, and a one-way or
// callback send returns after the transport-level ack, nothing decoded.
func Invoke(c *pipeline.Call, reg *transport.Registry, svc *core.ServiceInfo, op string, params []engine.Param) (*engine.Result, error) {
	if svc.Definitions == nil {
		return nil, fmt.Errorf("binding: service %q has no definitions", svc.Name)
	}
	stub := engine.NewStub(svc.Definitions, reg)
	stub.EndpointOverride = svc.Endpoint
	hdr := ExchangeHeaders(c)
	req, det, err := buildRequest(stub, hdr, op, params)
	if err != nil {
		return nil, err
	}
	c.Request = req
	if hdr != nil {
		if p, _ := c.GetMeta(exchange.MetaPattern).(exchange.Pattern); p == exchange.OneWay || p == exchange.Callback {
			if err := reg.Post(c.Ctx, req); err != nil {
				return nil, err
			}
			c.Response = &transport.Response{}
			return nil, nil
		}
	}
	resp, err := reg.Call(c.Ctx, req)
	if err != nil {
		return nil, err
	}
	c.Response = resp
	if det.Operation.OneWay() {
		return nil, nil
	}
	return engine.DecodeResponse(resp.Body, det)
}

// buildRequest is Stub.BuildRequest, with the caller's WS-Addressing
// headers (To/Action filled in from the resolved endpoint) applied to the
// envelope when there are any.
func buildRequest(stub *engine.Stub, hdr *wsaddr.MessageHeaders, op string, params []engine.Param) (*transport.Request, *wsdl.OperationDetail, error) {
	if hdr == nil {
		return stub.BuildRequest(op, params...)
	}
	env, det, err := stub.PrepareEnvelope(op, params...)
	if err != nil {
		return nil, nil, err
	}
	endpoint := det.Address
	if stub.EndpointOverride != "" {
		endpoint = stub.EndpointOverride
	}
	// Copy the headers: hedged or retried attempts share one Meta value and
	// must not see each other's To/Action.
	h := *hdr
	h.To = endpoint
	h.Action = det.SOAPAction
	if h.MessageID == "" {
		h.MessageID = wsaddr.NewMessageID()
	}
	if err := h.Apply(env); err != nil {
		return nil, nil, err
	}
	return &transport.Request{
		Endpoint:    endpoint,
		Action:      det.SOAPAction,
		ContentType: soap.ContentType,
		Body:        env.Marshal(),
	}, det, nil
}

// PostReplySender adapts a transport registry to engine.ReplySender:
// decoupled replies are delivered by posting the flattened message to the
// reply EPR's address over the scheme-selected transport.
func PostReplySender(reg *transport.Registry) engine.ReplySender {
	return engine.ReplySenderFunc(func(ctx context.Context, to *wsaddr.EndpointReference, msg *exchange.Message) error {
		return reg.Post(ctx, &transport.Request{
			Endpoint:    msg.Endpoint,
			Action:      msg.Action,
			ContentType: msg.ContentType,
			Body:        msg.Body,
		})
	})
}
