// Package engine is WSPeer's SOAP messaging engine — the role Apache Axis
// plays in the paper's Java implementation. It registers services backed by
// plain Go functions or stateful objects, dispatches incoming SOAP
// envelopes to them reflectively, generates their WSDL descriptions, runs
// the server-side interceptor pipeline, and builds dynamic client stubs
// "directly to bytes, bypassing source generation and compilation"
// (paper §IV-A).
package engine

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"

	"wspeer/internal/pipeline"
	"wspeer/internal/resilience"
	"wspeer/internal/wsdl"
	"wspeer/internal/xmlutil"
	"wspeer/internal/xsd"
)

// DefaultNamespacePrefix is used to derive a target namespace for services
// that do not specify one: DefaultNamespacePrefix + service name.
const DefaultNamespacePrefix = "http://wspeer.dev/services/"

var ctxType = reflect.TypeOf((*context.Context)(nil)).Elem()
var errType = reflect.TypeOf((*error)(nil)).Elem()

// OperationDef declares one operation of a service definition.
type OperationDef struct {
	// Name of the operation; must be a valid XML NCName.
	Name string
	// Func implements the operation. Its signature is
	//   func([ctx context.Context,] in1 T1, ... inN TN) ([out1 R1, ... outM RM][, err error])
	// Method values bound to live objects are the paper's "stateful object
	// exposed as a service" mechanism.
	Func interface{}
	// ParamNames optionally names the inputs (default in0, in1, ...).
	ParamNames []string
	// ResultNames optionally names the outputs (default "return", or
	// out0.. for multiple outputs).
	ResultNames []string
	// OneWay marks the operation as input-only: no response envelope is
	// produced and the function may not return non-error results.
	OneWay bool
	// Doc is optional human documentation copied into the WSDL.
	Doc string
}

// ServiceDef declares a deployable service.
type ServiceDef struct {
	// Name of the service; must be a valid XML NCName.
	Name string
	// Namespace is the target namespace (defaulted from the name).
	Namespace string
	// Operations of the service.
	Operations []OperationDef
}

// Service is a registered, invokable service.
type Service struct {
	name      string
	namespace string
	ops       map[string]*opInfo
	opOrder   []string
	schema    *xsd.Schema
}

type opInfo struct {
	name     string
	fn       reflect.Value
	hasCtx   bool
	hasErr   bool
	oneWay   bool
	doc      string
	inTypes  []reflect.Type
	inNames  []string
	outTypes []reflect.Type
	outNames []string

	// The request wrapper's parts and the response wrapper's local name,
	// put together once at analysis time. The types' xsd plans compile at
	// their first message.
	in       []xsd.Field
	respName string
}

// Name returns the service name.
func (s *Service) Name() string { return s.name }

// Namespace returns the service target namespace.
func (s *Service) Namespace() string { return s.namespace }

// Operations lists the operation names in registration order.
func (s *Service) Operations() []string {
	return append([]string(nil), s.opOrder...)
}

// ncName validates XML NCNames loosely (ASCII subset, which is all this
// system generates).
var ncName = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9._-]*$`)

// Engine owns the set of deployed services and the server pipeline.
type Engine struct {
	mu       sync.RWMutex
	services map[string]*Service
	order    []string

	// pipe is the server-side call pipeline every hosted request flows
	// through: host → interceptors → parse/dispatch (see ServeRequest).
	pipe     *pipeline.Chain
	serveFn  pipeline.CallFunc // serveCall, bound once: ServeRequest's terminal
	parsedFn pipeline.CallFunc // serveParsed, bound once: ServeParsed's terminal

	understoodMu sync.RWMutex
	understood   map[string]bool

	// replySenders route decoupled replies (non-anonymous wsa:ReplyTo /
	// wsa:FaultTo) by the reply endpoint's URI scheme; bindings register
	// theirs via RegisterReplySender.
	replyMu      sync.RWMutex
	replySenders map[string]ReplySender

	// admission, when set, gates every ServeRequest — from any host the
	// engine is attached to — behind server-side admission control.
	admission atomic.Pointer[resilience.Admission]
}

// New returns an engine with no services and an empty pipeline.
func New() *Engine {
	e := &Engine{
		services:   make(map[string]*Service),
		understood: make(map[string]bool),
		pipe:       pipeline.NewChain(),
	}
	e.serveFn, e.parsedFn = e.serveCall, e.serveParsed
	return e
}

// Use installs server-side pipeline interceptors around request
// processing: every ServeRequest — from any host the engine is attached
// to — flows through them before parsing and dispatch. Earlier-installed
// interceptors run outermost. This is the one way to extend the server:
// an interceptor sees the raw request before the engine processes it and
// the raw response (or the error) after.
func (e *Engine) Use(ics ...pipeline.Interceptor) { e.pipe.Use(ics...) }

// Pipeline exposes the engine's server-side interceptor chain.
func (e *Engine) Pipeline() *pipeline.Chain { return e.pipe }

// SetAdmission installs (or, with nil, removes) server-side admission
// control: every ServeRequest first claims a dispatch slot and callers
// the controller sheds get a *resilience.OverloadError instead of
// processing — which hosts translate to their binding's overload signal
// (HTTP 503 + Retry-After, a P2PS fault message). Safe to call with
// requests in flight.
func (e *Engine) SetAdmission(a *resilience.Admission) { e.admission.Store(a) }

// Admission returns the installed admission controller, or nil.
func (e *Engine) Admission() *resilience.Admission { return e.admission.Load() }

// Deploy registers a service definition, making it invokable.
func (e *Engine) Deploy(def ServiceDef) (*Service, error) {
	if !ncName.MatchString(def.Name) {
		return nil, fmt.Errorf("engine: invalid service name %q", def.Name)
	}
	if len(def.Operations) == 0 {
		return nil, fmt.Errorf("engine: service %q has no operations", def.Name)
	}
	ns := def.Namespace
	if ns == "" {
		ns = DefaultNamespacePrefix + def.Name
	}
	svc := &Service{
		name:      def.Name,
		namespace: ns,
		ops:       make(map[string]*opInfo, len(def.Operations)),
		schema:    xsd.NewSchema(ns),
	}
	for _, od := range def.Operations {
		op, err := analyzeOperation(od)
		if err != nil {
			return nil, fmt.Errorf("engine: service %q: %w", def.Name, err)
		}
		if _, dup := svc.ops[op.name]; dup {
			return nil, fmt.Errorf("engine: service %q: duplicate operation %q", def.Name, op.name)
		}
		// Declare the request and response wrapper elements.
		if err := svc.schema.AddElement(op.name, op.in); err != nil {
			return nil, fmt.Errorf("engine: service %q operation %q: %w", def.Name, op.name, err)
		}
		if !op.oneWay {
			outFields := make([]xsd.Field, len(op.outTypes))
			for i, t := range op.outTypes {
				outFields[i] = xsd.Field{Name: op.outNames[i], Type: t}
			}
			if err := svc.schema.AddElement(op.name+"Response", outFields); err != nil {
				return nil, fmt.Errorf("engine: service %q operation %q: %w", def.Name, op.name, err)
			}
		}
		svc.ops[op.name] = op
		svc.opOrder = append(svc.opOrder, op.name)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.services[def.Name]; exists {
		return nil, fmt.Errorf("engine: service %q already deployed", def.Name)
	}
	e.services[def.Name] = svc
	e.order = append(e.order, def.Name)
	return svc, nil
}

// Undeploy removes a service; it reports whether the service existed.
func (e *Engine) Undeploy(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.services[name]; !ok {
		return false
	}
	delete(e.services, name)
	for i, n := range e.order {
		if n == name {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	return true
}

// Service returns a deployed service by name, or nil.
func (e *Engine) Service(name string) *Service {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.services[name]
}

// Services lists deployed service names in deployment order.
func (e *Engine) Services() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.order...)
}

// Understand marks a header namespace as understood for the purpose of
// SOAP mustUnderstand processing. WS-Addressing is understood by default
// (see dispatch.go).
func (e *Engine) Understand(namespace string) {
	e.understoodMu.Lock()
	defer e.understoodMu.Unlock()
	e.understood[namespace] = true
}

func (e *Engine) understands(namespace string) bool {
	e.understoodMu.RLock()
	defer e.understoodMu.RUnlock()
	return e.understood[namespace]
}

// analyzeOperation reflects over an operation's function signature.
func analyzeOperation(od OperationDef) (*opInfo, error) {
	if !ncName.MatchString(od.Name) {
		return nil, fmt.Errorf("invalid operation name %q", od.Name)
	}
	if od.Func == nil {
		return nil, fmt.Errorf("operation %q has no function", od.Name)
	}
	fv := reflect.ValueOf(od.Func)
	ft := fv.Type()
	if ft.Kind() != reflect.Func {
		return nil, fmt.Errorf("operation %q: %T is not a function", od.Name, od.Func)
	}
	if ft.IsVariadic() {
		return nil, fmt.Errorf("operation %q: variadic functions are not supported", od.Name)
	}
	op := &opInfo{name: od.Name, fn: fv, oneWay: od.OneWay, doc: od.Doc}

	start := 0
	if ft.NumIn() > 0 && isContextType(ft.In(0)) {
		op.hasCtx = true
		start = 1
	}
	for i := start; i < ft.NumIn(); i++ {
		op.inTypes = append(op.inTypes, ft.In(i))
	}
	op.inNames = make([]string, len(op.inTypes))
	for i := range op.inNames {
		if i < len(od.ParamNames) && od.ParamNames[i] != "" {
			op.inNames[i] = od.ParamNames[i]
		} else {
			op.inNames[i] = fmt.Sprintf("in%d", i)
		}
	}

	nOut := ft.NumOut()
	if nOut > 0 && ft.Out(nOut-1) == errType {
		op.hasErr = true
		nOut--
	}
	for i := 0; i < nOut; i++ {
		op.outTypes = append(op.outTypes, ft.Out(i))
	}
	if od.OneWay && len(op.outTypes) > 0 {
		return nil, fmt.Errorf("operation %q: one-way operations may only return an error", od.Name)
	}
	op.outNames = make([]string, len(op.outTypes))
	for i := range op.outNames {
		switch {
		case i < len(od.ResultNames) && od.ResultNames[i] != "":
			op.outNames[i] = od.ResultNames[i]
		case len(op.outTypes) == 1:
			op.outNames[i] = "return"
		default:
			op.outNames[i] = fmt.Sprintf("out%d", i)
		}
	}
	if err := uniqueNames(op.inNames); err != nil {
		return nil, fmt.Errorf("operation %q inputs: %w", od.Name, err)
	}
	if err := uniqueNames(op.outNames); err != nil {
		return nil, fmt.Errorf("operation %q outputs: %w", od.Name, err)
	}

	for i, t := range op.inTypes {
		op.in = append(op.in, xsd.Field{Name: op.inNames[i], Type: t})
	}
	op.respName = op.name + "Response"
	return op, nil
}

func uniqueNames(names []string) error {
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			return fmt.Errorf("duplicate part name %q", n)
		}
		seen[n] = true
	}
	return nil
}

func isContextType(t reflect.Type) bool { return t == ctxType }

// ---------------------------------------------------------------------------
// Stateful object services

// FromObject builds a ServiceDef exposing every exported method of obj as
// an operation, implementing the paper's "service as an interface to a
// stateful object": the object's in-memory state persists across
// invocations. Methods with unsupported signatures are reported as errors.
func FromObject(name string, obj interface{}) (ServiceDef, error) {
	ops, err := OperationsFromObject(obj)
	if err != nil {
		return ServiceDef{}, err
	}
	return ServiceDef{Name: name, Operations: ops}, nil
}

// OperationsFromObject reflects the exported methods of one object into
// operation definitions, sorted by name.
func OperationsFromObject(obj interface{}) ([]OperationDef, error) {
	v := reflect.ValueOf(obj)
	t := v.Type()
	if t.Kind() != reflect.Ptr && t.Kind() != reflect.Interface && t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("engine: need a struct or pointer, got %T", obj)
	}
	var names []string
	for i := 0; i < t.NumMethod(); i++ {
		names = append(names, t.Method(i).Name)
	}
	sort.Strings(names)
	var ops []OperationDef
	for _, mn := range names {
		m := v.MethodByName(mn)
		ops = append(ops, OperationDef{Name: mn, Func: m.Interface()})
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("engine: %T exposes no exported methods", obj)
	}
	return ops, nil
}

// FromObjects builds a ServiceDef whose operations are drawn from several
// live objects — the paper's "each operation given to the service can map
// to a different stateful object in memory, allowing a service to be an
// interface to multiple objects" (§III point 3). Method-name collisions
// across objects are an error.
func FromObjects(name string, objects ...interface{}) (ServiceDef, error) {
	if len(objects) == 0 {
		return ServiceDef{}, fmt.Errorf("engine: FromObjects needs at least one object")
	}
	def := ServiceDef{Name: name}
	seen := map[string]string{}
	for _, obj := range objects {
		ops, err := OperationsFromObject(obj)
		if err != nil {
			return ServiceDef{}, err
		}
		for _, op := range ops {
			if prev, dup := seen[op.Name]; dup {
				return ServiceDef{}, fmt.Errorf("engine: operation %q provided by both %s and %T", op.Name, prev, obj)
			}
			seen[op.Name] = fmt.Sprintf("%T", obj)
			def.Operations = append(def.Operations, op)
		}
	}
	return def, nil
}

// ---------------------------------------------------------------------------
// WSDL generation

// WSDL builds the service's WSDL definitions bound to the given transport
// URI and endpoint address (paper: "deploying a service involves taking a
// code source [and] generating a service interface description from it").
func (s *Service) WSDL(transportURI, address string) (*wsdl.Definitions, error) {
	d := &wsdl.Definitions{
		Name:            s.name,
		TargetNamespace: s.namespace,
		Schema:          s.schema,
	}
	pt := &wsdl.PortType{Name: s.name + "PortType"}
	binding := &wsdl.Binding{
		Name:      s.name + "Binding",
		PortType:  pt.Name,
		Transport: transportURI,
	}
	for _, opName := range s.opOrder {
		op := s.ops[opName]
		inMsg := op.name + "RequestMsg"
		d.Messages = append(d.Messages, &wsdl.Message{
			Name:  inMsg,
			Parts: []wsdl.Part{{Name: "parameters", Element: xmlutil.N(s.namespace, op.name)}},
		})
		wop := &wsdl.Operation{Name: op.name, Input: inMsg, Doc: op.doc}
		if !op.oneWay {
			outMsg := op.name + "ResponseMsg"
			d.Messages = append(d.Messages, &wsdl.Message{
				Name:  outMsg,
				Parts: []wsdl.Part{{Name: "parameters", Element: xmlutil.N(s.namespace, op.name+"Response")}},
			})
			wop.Output = outMsg
		}
		pt.Operations = append(pt.Operations, wop)
		binding.Operations = append(binding.Operations, wsdl.BindingOperation{
			Name:       op.name,
			SOAPAction: s.SOAPAction(op.name),
		})
	}
	d.PortTypes = []*wsdl.PortType{pt}
	d.Bindings = []*wsdl.Binding{binding}
	d.Services = []*wsdl.Service{{
		Name: s.name,
		Ports: []wsdl.Port{{
			Name:    s.name + "Port",
			Binding: binding.Name,
			Address: address,
		}},
	}}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("engine: generated WSDL invalid: %w", err)
	}
	return d, nil
}

// SOAPAction returns the action URI for one of the service's operations.
func (s *Service) SOAPAction(op string) string { return s.namespace + "#" + op }
