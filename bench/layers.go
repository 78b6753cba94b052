package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"time"

	"wspeer/internal/binding/p2psbind"
	"wspeer/internal/core"
	"wspeer/internal/engine"
	"wspeer/internal/exchange"
	"wspeer/internal/httpd"
	"wspeer/internal/p2ps"
	"wspeer/internal/pipeline"
	"wspeer/internal/resilience"
	"wspeer/internal/resolve"
	"wspeer/internal/soap"
	"wspeer/internal/telemetry"
	"wspeer/internal/transport"
	"wspeer/internal/uddi"
	"wspeer/internal/wsaddr"
	"wspeer/internal/wsdl"
	"wspeer/internal/xmlutil"
	"wspeer/internal/xsd"
)

// layerSet collects the per-layer values of one traced run.
type layerSet struct {
	m map[string]value
}

func newLayerSet() *layerSet { return &layerSet{m: make(map[string]value)} }

func (ls *layerSet) set(name string, v float64, n int) { ls.m[name] = single(v, n) }

func (ls *layerSet) setSpread(name string, vs []float64) {
	if len(vs) == 0 {
		return
	}
	lo, hi := minMax(vs)
	ls.m[name] = value{Value: median(vs), Min: lo, Max: hi, N: len(vs)}
}

func (ls *layerSet) get(name string) float64 { return ls.m[name].Value }

func (ls *layerSet) has(name string) bool { _, ok := ls.m[name]; return ok }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timeIt calls fn for about the budget and returns the median time per
// call in µs, the allocations per call and the number of calls. Calls
// too short for the clock are timed in batches.
func timeIt(budget time.Duration, fn func()) (us, allocs float64, calls int) {
	fn() // first call: caches, lazy plans
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	batch := 1
	if one < 20*time.Microsecond {
		batch = int(20*time.Microsecond/(one+1)) + 1
		if batch > 4096 {
			batch = 4096
		}
	}
	var per []float64
	m0 := mallocs()
	start := time.Now()
	for len(per) < 5 || time.Since(start) < budget {
		b0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(b0))/1e3/float64(batch))
		if len(per) >= 1<<16 {
			break
		}
	}
	calls = len(per) * batch
	return median(per), float64(mallocs()-m0) / float64(calls), calls
}

func (ls *layerSet) time(name string, budget time.Duration, fn func()) (us, allocs float64) {
	us, allocs, n := timeIt(budget, fn)
	ls.set(name, us, n)
	return us, allocs
}

// isolatedInstruments is how many timed calls codecLayers and
// commonLayers make; the isolated budget is divided by it.
const isolatedInstruments = 21

// codecLayers times each codec layer's public functions on the bytes and
// values of the workload's real traffic: the request and response the
// traced pass captured on the server side.
func codecLayers(ls *layerSet, iso *isoInputs, per time.Duration) error {
	capReq, capResp := iso.capReq, iso.capResp
	ctx := context.Background()
	det, err := iso.defs.Detail(iso.op)
	if err != nil {
		return err
	}
	ns := det.Input.Space
	in := reflect.ValueOf(iso.params[0].Value)

	// The server side alone: a fresh engine with the binding's own
	// interceptors and the same service, fed the captured request. A
	// decoupled reply (P2PS) is handed to a sender that keeps the bytes.
	eng := engine.New()
	eng.Use(iso.serverChain...)
	if _, err := eng.Deploy(iso.def); err != nil {
		return err
	}
	var decoupled []byte
	eng.RegisterReplySender(core.P2PSScheme, engine.ReplySenderFunc(
		func(_ context.Context, _ *wsaddr.EndpointReference, msg *exchange.Message) error {
			decoupled = msg.Body
			return nil
		}))
	var serveErr error
	_, allocs := ls.time("engine.serve_us", per, func() {
		resp, err := eng.ServeRequest(ctx, iso.def.Name, capReq)
		if err != nil || resp.Faulted {
			serveErr = fmt.Errorf("bench: isolated ServeRequest failed: %v", err)
		}
	})
	if serveErr != nil {
		return serveErr
	}
	ls.set("engine.serve_allocs", allocs, ls.m["engine.serve_us"].N)
	if len(capResp) == 0 {
		capResp = decoupled // the reply went out of band
	}
	if len(capResp) == 0 {
		return fmt.Errorf("bench: no response bytes captured")
	}

	reqRoot, err := xmlutil.ParseBytes(capReq.Body)
	if err != nil {
		return err
	}
	reqEnv, err := soap.Parse(capReq.Body)
	if err != nil {
		return err
	}
	respEnv, err := soap.Parse(capResp)
	if err != nil {
		return err
	}
	wrapper := respEnv.FirstBodyElement()
	outType := reflect.TypeOf(iso.resultProto).Elem()

	_, encAllocs := ls.time("xsd.encode_us", per, func() {
		parent := xmlutil.NewElement(det.Input)
		if err := xsd.AppendValue(parent, ns, iso.params[0].Name, in); err != nil {
			serveErr = err
		}
	})
	_, decAllocs := ls.time("xsd.decode_us", per, func() {
		if _, err := xsd.ExtractValue(wrapper, det.Output.Space, "return", outType); err != nil {
			serveErr = err
		}
	})
	ls.set("xsd.allocs_per_value", encAllocs+decAllocs, 1)

	parseUs, _ := ls.time("xmlutil.parse_us", per, func() {
		if _, err := xmlutil.ParseBytes(capReq.Body); err != nil {
			serveErr = err
		}
	})
	ls.set("xmlutil.parse_mb_per_s", float64(len(capReq.Body))/parseUs, len(capReq.Body))
	writeUs, _ := ls.time("xmlutil.write_us", per, func() { _ = xmlutil.Marshal(reqRoot) })

	// soap's own share: the whole call minus the xmlutil call inside it.
	soapParse, _, n := timeIt(per, func() {
		if _, err := soap.Parse(capReq.Body); err != nil {
			serveErr = err
		}
	})
	ls.set("soap.parse_us", nonNeg(soapParse-parseUs), n)
	soapMarshal, _, n := timeIt(per, func() { _ = reqEnv.Marshal() })
	ls.set("soap.marshal_us", nonNeg(soapMarshal-writeUs), n)

	ls.time("engine.build_request_us", per, func() {
		stub := engine.NewStub(iso.defs, nil) // the invokers make a stub per call
		stub.EndpointOverride = iso.endpoint
		if _, _, err := stub.BuildRequest(iso.op, iso.params...); err != nil {
			serveErr = err
		}
	})
	ls.time("engine.decode_response_us", per, func() {
		res, err := engine.DecodeResponse(capResp, det)
		if err == nil {
			err = res.Decode("return", reflect.New(outType).Interface())
		}
		if err != nil {
			serveErr = err
		}
	})
	return serveErr
}

func nonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// commonLayers times the layers whose cost does not depend on captured
// traffic: deployment, WSDL, the bare pipelines, addressing headers,
// the limiter, the correlation table, the resolution cache, telemetry.
func commonLayers(ls *layerSet, iso *isoInputs, per time.Duration) error {
	ctx := context.Background()
	var fail error

	ls.time("engine.deploy_us", per, func() {
		if _, err := engine.New().Deploy(iso.def); err != nil {
			fail = err
		}
	})
	svc, err := engine.New().Deploy(iso.def)
	if err != nil {
		return err
	}
	var defs *wsdl.Definitions
	ls.time("wsdl.generate_us", per, func() {
		if defs, err = svc.WSDL(wsdl.TransportHTTP, iso.endpoint); err != nil {
			fail = err
		}
	})
	if fail != nil {
		return fail
	}
	raw, err := defs.Marshal()
	if err != nil {
		return err
	}
	ls.time("wsdl.parse_us", per, func() {
		if _, err := wsdl.Parse(raw); err != nil {
			fail = err
		}
	})

	noop := func(*pipeline.Call) error { return nil }
	clientChain := pipeline.NewChain(iso.clientChain...)
	ls.time("pipeline.client_chain_us", per, func() {
		c := &pipeline.Call{Ctx: ctx, Dir: pipeline.ClientCall, Service: iso.def.Name, Op: iso.op}
		_ = clientChain.Run(c, noop)
	})
	serverChain := pipeline.NewChain(iso.serverChain...)
	ls.time("pipeline.server_chain_us", per, func() {
		c := &pipeline.Call{Ctx: ctx, Dir: pipeline.ServerDispatch, Service: iso.def.Name}
		_ = serverChain.Run(c, noop)
	})

	// A request's addressing block as the P2PS binding makes it: headers
	// for a pipe EPR, a pipe-advert ReplyTo, attached and read back.
	pipe := &p2ps.PipeAdvertisement{ID: p2ps.NewPipeID(), Name: p2psbind.RequestPipeName, Peer: p2ps.NewPeerID()}
	reply := &p2ps.PipeAdvertisement{ID: p2ps.NewPipeID(), Name: "reply", Peer: p2ps.NewPeerID()}
	ls.time("wsaddr.headers_us", per, func() {
		hdr := wsaddr.HeadersFor(p2psbind.PipeToEPR(pipe, iso.def.Name), p2psbind.ActionFor(pipe.Peer, iso.def.Name, pipe.Name))
		hdr.ReplyTo = p2psbind.PipeToEPR(reply, "")
		env := soap.NewEnvelope()
		if err := hdr.Apply(env); err != nil {
			fail = err
		}
		if _, err := wsaddr.FromEnvelope(env); err != nil {
			fail = err
		}
	})

	adm := resilience.NewAdmission(resilience.AdmissionOptions{MaxConcurrent: overloadSlots, MaxQueue: overloadQueue})
	ls.time("resilience.admit_us", per, func() {
		tk, err := adm.Admit(ctx)
		if err != nil {
			fail = err
		}
		tk.Done()
	})

	table := exchange.NewTable(exchange.TableOptions{})
	defer table.Close()
	msg := &exchange.Message{}
	seq := 0
	ls.time("exchange.register_resolve_us", per, func() {
		seq++
		id := fmt.Sprintf("urn:uuid:bench-%d", seq)
		if _, err := table.Register(id, 0); err != nil {
			fail = err
		}
		table.Resolve(id, msg)
	})

	cache := resolve.New(resolve.Options{TTL: time.Hour})
	lookup := func(context.Context) ([]resolve.Entry, error) {
		return []resolve.Entry{{Endpoint: iso.endpoint}}, nil
	}
	ls.time("resolve.hit_us", per, func() {
		if _, err := cache.Get(ctx, "bench", lookup); err != nil {
			fail = err
		}
	})

	// What core.Invoke and Engine.ServeRequest do to the spine per call,
	// on a hub of its own so that the process-wide one stays as the
	// workload left it.
	hub := telemetry.New()
	ls.time("telemetry.record_call_us", per, func() {
		hub.Calls.Record(iso.def.Name, telemetry.DirClient, 50*time.Microsecond, false)
		hub.Flight.Record(telemetry.CallRecord{Service: iso.def.Name, Op: iso.op, Dir: telemetry.DirClient, Latency: 50 * time.Microsecond}, nil)
	})
	ls.time("telemetry.span_us", per, func() {
		span, _ := hub.Tracer.StartSpan(ctx, "client.invoke")
		span.SetService(iso.def.Name)
		span.End()
	})
	ls.time("telemetry.export_prom_us", per, func() {
		if err := telemetry.Default().WritePrometheus(io.Discard); err != nil {
			fail = err
		}
	})
	return fail
}

// httpLayers times what only an HTTP workload has: the price of net/http
// framing plus loopback with no WSPeer server behind it, and deployment on
// a host with and without the lazy listener start.
func httpLayers(ls *layerSet, iso *isoInputs, budget time.Duration) {
	per := budget / 3
	if iso.capReq != nil {
		if err := httpFloor(ls, iso, per); err != nil {
			delete(ls.m, "transport.http_floor_us")
		}
	}
	def2 := iso.def
	def2.Name = iso.def.Name + "Second"
	var first, later []float64
	for start := time.Now(); len(first) < 5 || time.Since(start) < 2*per; {
		h := httpd.New(engine.New(), httpd.Options{})
		t0 := time.Now()
		_, err1 := h.Deploy(iso.def)
		t1 := time.Now()
		_, err2 := h.Deploy(def2)
		t2 := time.Now()
		h.Close()
		if err1 != nil || err2 != nil {
			return
		}
		first = append(first, float64(t1.Sub(t0))/1e3)
		later = append(later, float64(t2.Sub(t1))/1e3)
	}
	ls.setSpread("httpd.deploy_first_us", first)
	ls.setSpread("httpd.deploy_us", later)
}

// httpFloor serves canned bytes of the captured response's size from a
// bare net/http handler and times HTTPTransport.Call against it.
func httpFloor(ls *layerSet, iso *isoInputs, budget time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", soap.ContentType)
		_, _ = w.Write(iso.capResp)
	})}
	go srv.Serve(ln) //nolint:errcheck // returns when the server is closed
	defer srv.Close()
	req := *iso.capReq
	req.Endpoint = "http://" + ln.Addr().String() + "/floor"
	tr := transport.NewHTTPTransport()
	ctx := context.Background()
	var fail error
	ls.time("transport.http_floor_us", budget, func() {
		if _, err := tr.Call(ctx, &req); err != nil {
			fail = err
		}
	})
	return fail
}

// refuseLayer times a 503: a host whose single admission slot is held
// answers every further call with a refusal.
func refuseLayer(ls *layerSet, budget time.Duration) {
	adm := resilience.NewAdmission(resilience.AdmissionOptions{MaxConcurrent: 1})
	h := httpd.New(engine.New(), httpd.Options{Admission: adm})
	defer h.Close()
	url, err := h.Deploy(echoDef("Echo", nil))
	if err != nil {
		return
	}
	ctx := context.Background()
	if err := adm.Acquire(ctx); err != nil {
		return
	}
	defer adm.Release()
	defs, err := h.WSDL("Echo")
	if err != nil {
		return
	}
	req, _, err := engine.NewStub(defs, nil).BuildRequest("echo", engine.P("msg", "0123456789abcdef"))
	if err != nil {
		return
	}
	req.Endpoint = url
	tr := transport.NewHTTPTransport()
	refused := true
	us, _, n := timeIt(budget, func() {
		_, err := tr.Call(ctx, req)
		if classify("", nil, err) != stShed {
			refused = false
		}
	})
	if refused {
		ls.set("httpd.refuse_us", us, n)
	}
}

// registryLayers times the UDDI client against a registry peer.
func registryLayers(ls *layerSet, registryURL string, budget time.Duration) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewHTTPTransport())
	udc, err := uddi.NewClient(registryURL, reg)
	if err != nil {
		return
	}
	ctx := context.Background()
	rec := uddi.BusinessService{
		Name:        "BenchProbe",
		Description: "WSPeer-hosted service",
		Bindings:    []uddi.BindingTemplate{{AccessPoint: "http://127.0.0.1:1/services/BenchProbe"}},
	}
	var keys []string
	ok := true
	ls.time("uddi.publish_us", budget/2, func() {
		key, err := udc.Publish(ctx, rec)
		if err != nil {
			ok = false
		}
		keys = append(keys, key)
	})
	for _, k := range keys[1:] {
		_, _ = udc.Unpublish(ctx, k) // leave one record to find
	}
	ls.time("uddi.find_us", budget/2, func() {
		if found, err := udc.Find(ctx, uddi.FindQuery{Name: "BenchProbe"}); err != nil || len(found) != 1 {
			ok = false
		}
	})
	_, _ = udc.Unpublish(ctx, keys[0])
	if !ok {
		delete(ls.m, "uddi.publish_us")
		delete(ls.m, "uddi.find_us")
	}
}

// p2psPipeLayers times one pipe hop between the rig's two TCP peers with
// the workload's request body.
func p2psPipeLayers(ls *layerSet, o *p2psOverlay, iso *isoInputs, budget time.Duration) {
	req, _, err := engine.NewStub(iso.defs, nil).BuildRequest(iso.op, iso.params...)
	if err != nil {
		return
	}
	in, err := o.providerNode.CreateInputPipe("bench-oneway")
	if err != nil {
		return
	}
	defer in.Close()
	got := make(chan struct{}, 1)
	in.AddListener(func(p2ps.PeerID, []byte) { got <- struct{}{} })
	out, err := o.consumerNode.OpenOutputPipe(in.Advertisement())
	if err != nil {
		return
	}
	ok := true
	us, _, n := timeIt(budget, func() {
		if err := out.Send(req.Body); err != nil {
			ok = false
			return
		}
		select {
		case <-got:
		case <-time.After(time.Second):
			ok = false
		}
	})
	if ok {
		ls.set("p2ps.pipe_oneway_us", us, n)
	}
}

// p2psDiscoveryLayers splits a locate into its parts: the query until the
// first matching advert arrives, and the WSDL fetch over the definition
// pipe. What is left of a locate is the wait for the window to close.
func p2psDiscoveryLayers(ls *layerSet, o *p2psOverlay, name string, budget time.Duration) {
	var adv *p2ps.ServiceAdvertisement
	ls.time("p2ps.discover_first_match_us", budget/2, func() {
		d := o.consumerNode.Discover(p2ps.Query{Name: name}, discoveryWindow)
		first := make(chan *p2ps.ServiceAdvertisement, 1)
		d.OnMatch(func(a *p2ps.ServiceAdvertisement) {
			select {
			case first <- a:
			default:
			}
		})
		select {
		case adv = <-first:
		case <-d.Done():
		}
		d.Cancel()
	})
	if adv == nil {
		delete(ls.m, "p2ps.discover_first_match_us")
		return
	}
	ctx := context.Background()
	ok := true
	ls.time("p2psbind.fetch_definitions_us", budget/2, func() {
		if _, err := o.consumerB.FetchDefinitions(ctx, adv); err != nil {
			ok = false
		}
	})
	if !ok {
		delete(ls.m, "p2psbind.fetch_definitions_us")
	}
}
